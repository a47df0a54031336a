//! Dataset specifications and the two paper presets.

/// Specification of one concept in a dataset.
#[derive(Debug, Clone)]
pub struct ConceptSpec {
    /// Concept name (Table II).
    pub name: String,
    /// Distinct head words in the concept's lexical field.
    pub head_count: usize,
    /// Size of the instance universe `dom(C)`.
    pub instance_count: usize,
    /// Relative mention frequency in documents (class imbalance,
    /// proportional to the gold counts of Table VII).
    pub mention_weight: f64,
    /// Index of a correlated concept (its topic centroid is pulled
    /// toward that concept's) and the mixing weight.
    pub correlate_with: Option<(usize, f32)>,
    /// Probability that an instance borrows a head word from the
    /// correlated concept's field.
    pub ambiguity: f64,
}

impl ConceptSpec {
    /// A plain concept spec.
    pub fn new(name: &str, head_count: usize, instance_count: usize, mention_weight: f64) -> Self {
        Self {
            name: name.to_string(),
            head_count,
            instance_count,
            mention_weight,
            correlate_with: None,
            ambiguity: 0.0,
        }
    }

    /// Correlate with another concept (by index) and set ambiguity.
    pub fn correlated(mut self, with: usize, mix: f32, ambiguity: f64) -> Self {
        self.correlate_with = Some((with, mix));
        self.ambiguity = ambiguity;
        self
    }
}

/// Full dataset specification. Concept 0 is always the subject concept.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name.
    pub name: String,
    /// RNG seed — everything downstream is deterministic in it.
    pub seed: u64,
    /// Concepts; index 0 is the subject concept `C*`.
    pub concepts: Vec<ConceptSpec>,
    /// Subjects per split (`|dom(C*)|` rows of Table III).
    pub subjects: (usize, usize, usize),
    /// Documents per subject (Disease style) — ignored when
    /// `subjects_per_doc > 1`.
    pub docs_per_subject: usize,
    /// Subjects bundled into one document (Résumé: 5 CVs per doc).
    pub subjects_per_doc: usize,
    /// Entity-bearing sentences per subject per document.
    pub sentences_per_subject: usize,
    /// Fraction of a subject's gold instances present in the integrated
    /// table (the rest appear only in text — THOR must generalize).
    pub table_coverage: f64,
    /// Fraction of each concept's instance universe reserved as *novel*:
    /// those instances can appear in documents but never enter the
    /// integrated table. This is what makes exact matching (Baseline)
    /// low-recall and gives τ its recall slope.
    pub novel_rate: f64,
    /// Probability that a *test* subject's gold instance is drawn from
    /// the novel pool (train/validation subjects only use the common
    /// pool, so novel instances are unseen both by the table and by any
    /// annotated training text).
    pub test_novel_mix: f64,
    /// Distractor words per concept: orthographically plausible (same
    /// suffix family) words at the topic's semantic periphery, mentioned
    /// in no-entity sentences. They fool lenient matchers (low τ) and
    /// suffix-driven taggers — the false-positive source.
    pub distractors_per_concept: usize,
    /// Probability that an instance of a correlated concept is *also*
    /// added to its partner's universe (same phrase, two concepts — the
    /// dictionary baseline's wrong-type source).
    pub phrase_collision: f64,
    /// Fraction of *junk* values injected into the integrated table per
    /// concept (relative to its instance universe): erroneous values
    /// that survived integration — the data-quality noise cleaning
    /// systems exist to fight. Junk values are drawn from the concept's
    /// distractor vocabulary, so they match real distractor mentions.
    pub table_noise: f64,
    /// Fraction of each concept's head words built from the generic
    /// (concept-neutral) suffix family — invisible to morphology-driven
    /// systems.
    pub irregular_rate: f64,
    /// Fraction of vocabulary words that have embeddings (the
    /// generalizability knob; Résumé is lower).
    pub embedding_coverage: f64,
    /// Test documents use a shifted writing style (different verbs and
    /// sentence frames than the training split). Models that type
    /// entities from sentence *context* (sequence taggers) lose their
    /// transfer; models that type from the entity itself (THOR's
    /// embeddings, exact matching) are unaffected. Models the unseen-
    /// domain scenario of Experiment 3.
    pub test_style_shift: bool,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Intra-topic spread of the synthetic semantic space.
    pub spread: f32,
    /// Number of partial sources the integrated table is built from.
    pub source_count: usize,
}

impl DatasetSpec {
    /// The Disease A–Z preset: 11 concepts (Table II), splits and volume
    /// matching Table III at `scale` (1.0 ≈ the paper's corpus; tests
    /// use small scales).
    pub fn disease_az(seed: u64, scale: f64) -> Self {
        let s = |x: usize| ((x as f64 * scale).round() as usize).max(1);
        // Mention weights ∝ Table VII gold counts.
        let concepts = vec![
            ConceptSpec::new("Disease", 240, 320, 410.0),
            ConceptSpec::new("Anatomy", 110, 150, 369.0),
            ConceptSpec::new("Cause", 45, 60, 47.0),
            // Complication overlaps Anatomy ('blood' vs 'blood clot').
            ConceptSpec::new("Complication", 120, 160, 384.0).correlated(1, 0.3, 0.12),
            ConceptSpec::new("Composition", 38, 50, 65.0),
            ConceptSpec::new("Diagnosis", 60, 80, 141.0),
            ConceptSpec::new("Medicine", 110, 150, 376.0),
            ConceptSpec::new("Precaution", 40, 55, 72.0),
            // Riskfactor overlaps Cause.
            ConceptSpec::new("Riskfactor", 52, 70, 136.0).correlated(2, 0.25, 0.12),
            ConceptSpec::new("Surgery", 45, 60, 85.0),
            // Symptom overlaps Complication.
            ConceptSpec::new("Symptom", 70, 90, 137.0).correlated(3, 0.25, 0.12),
        ];
        Self {
            name: "Disease A-Z".to_string(),
            seed,
            concepts,
            subjects: (s(240), s(61), s(13)),
            docs_per_subject: 6,
            subjects_per_doc: 1,
            sentences_per_subject: 10,
            table_coverage: 0.55,
            novel_rate: 0.5,
            test_novel_mix: 0.85,
            distractors_per_concept: 25,
            phrase_collision: 0.03,
            table_noise: 0.01,
            irregular_rate: 0.35,
            embedding_coverage: 0.9,
            test_style_shift: false,
            dim: 48,
            spread: 0.75,
            source_count: 10,
        }
    }

    /// Check that [`generate()`](crate::generate()) can realize the
    /// spec: the subject concept's instance universe must hold every
    /// requested subject. `generate` asserts this; callers holding user
    /// input check first so the failure has a name instead of a panic.
    pub fn validate(&self) -> Result<(), String> {
        let (train, validation, test) = self.subjects;
        let requested = train + validation + test;
        let universe = self.concepts.first().map_or(0, |c| c.instance_count);
        if requested > universe {
            return Err(format!(
                "{}: subject concept universe ({universe}) smaller than requested \
                 subjects ({requested})",
                self.name
            ));
        }
        Ok(())
    }

    /// The Résumé preset: 12 concepts, 5 CVs per document, lower
    /// embedding coverage (the unseen-domain scenario of Experiment 3).
    pub fn resume(seed: u64, scale: f64) -> Self {
        let s = |x: usize| ((x as f64 * scale).round() as usize).max(1);
        let concepts = vec![
            ConceptSpec::new("Name", 240, 320, 240.0),
            ConceptSpec::new("Awards", 38, 50, 90.0),
            ConceptSpec::new("Certification", 52, 70, 160.0),
            // Degrees overlap certifications lexically.
            ConceptSpec::new("Degree", 30, 40, 180.0).correlated(2, 0.3, 0.12),
            ConceptSpec::new("University", 60, 80, 200.0),
            // Colleges overlap universities (both org names).
            ConceptSpec::new("College Name", 45, 60, 120.0).correlated(4, 0.35, 0.15),
            ConceptSpec::new("Language", 22, 30, 110.0),
            ConceptSpec::new("Location", 68, 90, 200.0),
            ConceptSpec::new("Worked As", 68, 90, 260.0),
            ConceptSpec::new("Skills", 105, 140, 330.0).correlated(2, 0.25, 0.12),
            ConceptSpec::new("Companies Worked At", 75, 100, 190.0).correlated(4, 0.2, 0.1),
            ConceptSpec::new("Years Of Experience", 18, 25, 60.0),
        ];
        Self {
            name: "Résumé".to_string(),
            seed,
            concepts,
            subjects: (s(100), s(70), s(100)),
            docs_per_subject: 1,
            subjects_per_doc: 5,
            sentences_per_subject: 8,
            table_coverage: 0.35,
            novel_rate: 0.55,
            test_novel_mix: 0.9,
            distractors_per_concept: 25,
            phrase_collision: 0.04,
            table_noise: 0.015,
            irregular_rate: 0.75,
            embedding_coverage: 0.8,
            test_style_shift: true,
            dim: 48,
            spread: 0.5,
            source_count: 12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disease_preset_shape() {
        let d = DatasetSpec::disease_az(1, 1.0);
        assert_eq!(d.concepts.len(), 11);
        assert_eq!(d.concepts[0].name, "Disease");
        assert_eq!(d.subjects, (240, 61, 13));
    }

    #[test]
    fn resume_preset_shape() {
        let r = DatasetSpec::resume(1, 1.0);
        assert_eq!(r.concepts.len(), 12);
        assert_eq!(r.concepts[0].name, "Name");
        assert_eq!(r.subjects_per_doc, 5);
        assert!(r.embedding_coverage < DatasetSpec::disease_az(1, 1.0).embedding_coverage);
    }

    #[test]
    fn validate_rejects_more_subjects_than_the_universe() {
        assert!(DatasetSpec::disease_az(1, 1.0).validate().is_ok());
        assert!(DatasetSpec::resume(1, 1.0).validate().is_ok());
        let err = DatasetSpec::disease_az(1, 1.5).validate().unwrap_err();
        assert!(err.contains("universe (320)"), "{err}");
        assert!(err.contains("requested subjects (472)"), "{err}");
    }

    #[test]
    fn scaling_shrinks_subjects() {
        let d = DatasetSpec::disease_az(1, 0.1);
        assert_eq!(d.subjects, (24, 6, 1));
    }

    #[test]
    fn correlations_reference_earlier_concepts() {
        for spec in [DatasetSpec::disease_az(1, 1.0), DatasetSpec::resume(1, 1.0)] {
            for (i, c) in spec.concepts.iter().enumerate() {
                if let Some((j, _)) = c.correlate_with {
                    assert!(j < i, "{}: correlate_with must point backward", c.name);
                }
            }
        }
    }
}

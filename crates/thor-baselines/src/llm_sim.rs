//! Simulated zero-shot LLM extractors (GPT-4, UniversalNER).
//!
//! We cannot run the paper's LLM rows (GPT-4 behind an API, UniNER on an
//! A100). What the paper *measures* about them is a set of behaviours:
//! per-concept recall profiles, span-boundary sloppiness, label
//! confusion, hallucination, run-to-run nondeterminism, and a hard
//! context window (UniNER: 2,048 tokens — anything beyond is unread).
//! [`SimulatedLlm`] reproduces those behaviours mechanically from the
//! gold annotations so the comparison harness exercises the same
//! evaluation path.
//!
//! ⚠️ The simulator is an *oracle with noise*: its output quality is a
//! calibration to the paper's Table VII, not a measurement of any model.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use thor_core::{Document, ExtractedEntity};
use thor_data::Table;
use thor_datagen::AnnotatedDoc;
use thor_text::normalize_phrase;

use crate::Extractor;

/// Behaviour profile of a simulated LLM.
#[derive(Debug, Clone)]
pub struct LlmProfile {
    /// Display name.
    pub name: String,
    /// Per-concept recall (lowercased concept → probability of emitting
    /// a visible gold entity).
    pub recall: HashMap<String, f64>,
    /// Fallback recall for unlisted concepts.
    pub default_recall: f64,
    /// Probability of truncating an emitted multi-word phrase to its
    /// head word (produces SemEval *partial* matches).
    pub boundary_noise: f64,
    /// Probability of emitting with a wrong (random other) concept
    /// label (produces *incorrect* matches).
    pub confusion: f64,
    /// Expected hallucinated (fabricated) entities per emitted entity
    /// (produces *spurious* predictions).
    pub hallucination: f64,
    /// Context window in whitespace tokens; entities mentioned past the
    /// window are invisible. `usize::MAX` = unlimited.
    pub context_window: usize,
    /// Sampling seed — two different seeds give different outputs (the
    /// paper's "commonly produces different results for the same
    /// input").
    pub seed: u64,
}

impl LlmProfile {
    /// GPT-4 profile calibrated to Table VII (Disease A–Z): strong on
    /// frequent generic classes, weak on domain-specific rare ones, with
    /// noticeable hallucination.
    pub fn gpt4(seed: u64) -> Self {
        let recall = [
            ("anatomy", 0.48),
            ("cause", 0.83),
            ("complication", 0.54),
            ("composition", 0.26),
            ("diagnosis", 0.48),
            ("disease", 0.37),
            ("medicine", 0.38),
            ("precaution", 0.72),
            ("riskfactor", 0.63),
            ("surgery", 0.36),
            ("symptom", 0.88),
            // Résumé: good at names/orgs, terrible at role/duration.
            ("name", 0.85),
            ("university", 0.80),
            ("companies worked at", 0.75),
            ("worked as", 0.08),
            ("years of experience", 0.05),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        Self {
            name: "GPT-4".to_string(),
            recall,
            default_recall: 0.40,
            boundary_noise: 0.22,
            confusion: 0.15,
            hallucination: 0.25,
            context_window: 16_000,
            seed,
        }
    }

    /// UniversalNER profile: 2,048-token context window, zero recall on
    /// the under-represented `Composition` class, near-collapse on the
    /// unseen Résumé domain.
    pub fn uniner(seed: u64) -> Self {
        let recall = [
            ("anatomy", 0.53),
            ("cause", 0.66),
            ("complication", 0.51),
            ("composition", 0.0),
            ("diagnosis", 0.08),
            ("disease", 0.55),
            ("medicine", 0.16),
            ("precaution", 0.35),
            ("riskfactor", 0.54),
            ("surgery", 0.31),
            ("symptom", 0.79),
            // Résumé collapse (185 TP / 2,140 gold in Table XI).
            ("name", 0.25),
            ("awards", 0.02),
            ("certification", 0.03),
            ("degree", 0.05),
            ("university", 0.12),
            ("college name", 0.03),
            ("language", 0.10),
            ("location", 0.12),
            ("worked as", 0.04),
            ("skills", 0.05),
            ("companies worked at", 0.08),
            ("years of experience", 0.02),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        Self {
            name: "UniNER".to_string(),
            recall,
            default_recall: 0.28,
            boundary_noise: 0.20,
            confusion: 0.12,
            hallucination: 0.15,
            context_window: 2_048,
            seed,
        }
    }
}

/// The simulated extractor. Holds the gold annotations of the documents
/// it will be asked about (it "reads" the text; we emulate its output
/// distribution).
#[derive(Debug)]
pub struct SimulatedLlm {
    profile: LlmProfile,
    gold: HashMap<String, AnnotatedDoc>,
}

impl SimulatedLlm {
    /// Create a simulator over the annotated corpus.
    pub fn new(profile: LlmProfile, corpus: &[AnnotatedDoc]) -> Self {
        let gold = corpus
            .iter()
            .map(|d| (d.doc.id.clone(), d.clone()))
            .collect();
        Self { profile, gold }
    }

    /// The profile in use.
    pub fn profile(&self) -> &LlmProfile {
        &self.profile
    }
}

impl Extractor for SimulatedLlm {
    fn name(&self) -> &str {
        &self.profile.name
    }

    fn extract(&self, table: &Table, docs: &[Document]) -> Vec<ExtractedEntity> {
        let p = &self.profile;
        let mut rng = StdRng::seed_from_u64(p.seed);
        let concepts: Vec<String> = table
            .schema()
            .concepts()
            .iter()
            .map(|c| c.name().to_string())
            .collect();
        let mut out = Vec::new();

        for doc in docs {
            let Some(annotated) = self.gold.get(&doc.id) else {
                continue; // a document the model never saw
            };
            // Context-window truncation: an entity is visible only when
            // its words occur, whole and in order, within the window.
            let window: Vec<String> = doc
                .text
                .split_whitespace()
                .take(p.context_window)
                .map(normalize_phrase)
                .collect();

            for g in &annotated.gold {
                if !occurs_in(&window, &g.phrase) {
                    continue;
                }
                let recall = p
                    .recall
                    .get(&g.concept.to_lowercase())
                    .copied()
                    .unwrap_or(p.default_recall);
                if rng.random::<f64>() >= recall {
                    continue;
                }
                // Boundary noise: keep only the head (last) word.
                let phrase = if rng.random::<f64>() < p.boundary_noise {
                    g.phrase
                        .split_whitespace()
                        .last()
                        .unwrap_or(&g.phrase)
                        .to_string()
                } else {
                    g.phrase.clone()
                };
                // Label confusion.
                let concept = if rng.random::<f64>() < p.confusion && concepts.len() > 1 {
                    loop {
                        let c = &concepts[rng.random_range(0..concepts.len())];
                        if !c.eq_ignore_ascii_case(&g.concept) {
                            break c.clone();
                        }
                    }
                } else {
                    g.concept.clone()
                };
                out.push(ExtractedEntity {
                    subject: g.subject.clone(),
                    concept,
                    phrase,
                    score: 1.0,
                    matched_instance: String::new(),
                    doc_id: doc.id.clone(),
                    sentence_index: 0,
                });
                // Hallucination: fabricate an entity that is not in the
                // text at all ("generated outputs that were not part of
                // the input text").
                if rng.random::<f64>() < p.hallucination {
                    let concept = concepts[rng.random_range(0..concepts.len())].clone();
                    let phrase = format!(
                        "halluc {}{}",
                        concept.to_lowercase().chars().take(4).collect::<String>(),
                        rng.random_range(0..10_000)
                    );
                    out.push(ExtractedEntity {
                        subject: g.subject.clone(),
                        concept,
                        phrase,
                        score: 1.0,
                        matched_instance: String::new(),
                        doc_id: doc.id.clone(),
                        sentence_index: 0,
                    });
                }
            }
        }
        out.sort_by_key(|a| a.key());
        out.dedup_by(|a, b| a.key() == b.key());
        out
    }
}

/// Whether `phrase`'s whitespace words, each normalized like the window's
/// words, occur as a contiguous run of `window`: a phrase seen only inside
/// a longer word was not read.
fn occurs_in(window: &[String], phrase: &str) -> bool {
    let needle: Vec<String> = phrase.split_whitespace().map(normalize_phrase).collect();
    !needle.is_empty() && window.windows(needle.len()).any(|run| run == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use thor_data::Schema;
    use thor_datagen::annotate::GoldEntity;

    fn corpus(words_before_entity: usize) -> Vec<AnnotatedDoc> {
        let filler = vec!["filler"; words_before_entity].join(" ");
        let text = format!("{filler} cortonosis appears here.");
        vec![AnnotatedDoc {
            doc: Document::new("d1", text),
            subjects: vec!["S".into()],
            gold: vec![GoldEntity {
                subject: "S".into(),
                concept: "Complication".into(),
                phrase: "cortonosis".into(),
            }],
        }]
    }

    fn table() -> Table {
        let mut t = Table::new(Schema::new(
            ["Disease", "Anatomy", "Complication"],
            "Disease",
        ));
        t.row_for_subject("S");
        t
    }

    #[test]
    fn perfect_profile_reproduces_gold() {
        let profile = LlmProfile {
            name: "Oracle".into(),
            recall: HashMap::new(),
            default_recall: 1.0,
            boundary_noise: 0.0,
            confusion: 0.0,
            hallucination: 0.0,
            context_window: usize::MAX,
            seed: 1,
        };
        let corpus = corpus(5);
        let llm = SimulatedLlm::new(profile, &corpus);
        let docs: Vec<Document> = corpus.iter().map(|d| d.doc.clone()).collect();
        let found = llm.extract(&table(), &docs);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].phrase, "cortonosis");
    }

    #[test]
    fn context_window_hides_late_entities() {
        let profile = LlmProfile {
            name: "Tiny".into(),
            recall: HashMap::new(),
            default_recall: 1.0,
            boundary_noise: 0.0,
            confusion: 0.0,
            hallucination: 0.0,
            context_window: 10,
            seed: 1,
        };
        let corpus = corpus(50); // entity at word ~51 — past the window
        let llm = SimulatedLlm::new(profile, &corpus);
        let docs: Vec<Document> = corpus.iter().map(|d| d.doc.clone()).collect();
        assert!(llm.extract(&table(), &docs).is_empty());
    }

    #[test]
    fn context_window_reads_whole_words_only() {
        // Inside the window the gold phrase occurs only within longer
        // words; its first whole-word occurrence is past the window.
        let text = "precortonosis cortonosisitis, filler filler cortonosis.";
        let corpus = vec![AnnotatedDoc {
            doc: Document::new("d1", text),
            subjects: vec!["S".into()],
            gold: vec![GoldEntity {
                subject: "S".into(),
                concept: "Complication".into(),
                phrase: "cortonosis".into(),
            }],
        }];
        let docs: Vec<Document> = corpus.iter().map(|d| d.doc.clone()).collect();
        let read_within = |context_window: usize| {
            let profile = LlmProfile {
                name: "Window".into(),
                recall: HashMap::new(),
                default_recall: 1.0,
                boundary_noise: 0.0,
                confusion: 0.0,
                hallucination: 0.0,
                context_window,
                seed: 1,
            };
            SimulatedLlm::new(profile, &corpus).extract(&table(), &docs)
        };
        assert!(read_within(4).is_empty(), "read through a substring");
        let found = read_within(5);
        assert_eq!(found.len(), 1, "the whole word ends the 5-word window");
        assert_eq!(found[0].phrase, "cortonosis");
    }

    #[test]
    fn zero_recall_class_never_emitted() {
        let mut recall = HashMap::new();
        recall.insert("complication".to_string(), 0.0);
        let profile = LlmProfile {
            name: "NoCompl".into(),
            recall,
            default_recall: 1.0,
            boundary_noise: 0.0,
            confusion: 0.0,
            hallucination: 0.0,
            context_window: usize::MAX,
            seed: 1,
        };
        let corpus = corpus(5);
        let llm = SimulatedLlm::new(profile, &corpus);
        let docs: Vec<Document> = corpus.iter().map(|d| d.doc.clone()).collect();
        assert!(llm.extract(&table(), &docs).is_empty());
    }

    #[test]
    fn nondeterministic_across_seeds() {
        let corpus: Vec<AnnotatedDoc> = (0..30)
            .map(|i| AnnotatedDoc {
                doc: Document::new(format!("d{i}"), format!("entity{i} appears here.")),
                subjects: vec!["S".into()],
                gold: vec![GoldEntity {
                    subject: "S".into(),
                    concept: "Anatomy".into(),
                    phrase: format!("entity{i}"),
                }],
            })
            .collect();
        let docs: Vec<Document> = corpus.iter().map(|d| d.doc.clone()).collect();
        let run = |seed: u64| {
            let llm = SimulatedLlm::new(
                LlmProfile {
                    seed,
                    ..LlmProfile::gpt4(seed)
                },
                &corpus,
            );
            llm.extract(&table(), &docs).len()
        };
        // Same seed ⇒ same output; different seeds ⇒ (almost surely)
        // different output sizes.
        assert_eq!(run(1), run(1));
        let outputs: Vec<usize> = (1..=5).map(run).collect();
        assert!(outputs.windows(2).any(|w| w[0] != w[1]), "{outputs:?}");
    }

    #[test]
    fn hallucinations_are_spurious_phrases() {
        let profile = LlmProfile {
            name: "Dreamer".into(),
            recall: HashMap::new(),
            default_recall: 1.0,
            boundary_noise: 0.0,
            confusion: 0.0,
            hallucination: 1.0,
            context_window: usize::MAX,
            seed: 3,
        };
        let corpus = corpus(5);
        let llm = SimulatedLlm::new(profile, &corpus);
        let docs: Vec<Document> = corpus.iter().map(|d| d.doc.clone()).collect();
        let found = llm.extract(&table(), &docs);
        assert_eq!(found.len(), 2);
        assert!(found.iter().any(|e| e.phrase.starts_with("halluc")));
        let fabricated = found
            .iter()
            .find(|e| e.phrase.starts_with("halluc"))
            .unwrap();
        assert!(!corpus[0].doc.text.contains(&fabricated.phrase));
    }

    #[test]
    fn unknown_documents_skipped() {
        let llm = SimulatedLlm::new(LlmProfile::gpt4(1), &corpus(5));
        let stranger = vec![Document::new("unknown", "cortonosis here too.")];
        assert!(llm.extract(&table(), &stranger).is_empty());
    }
}

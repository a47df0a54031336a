//! Averaged-perceptron BIO sequence tagger — the stand-in for the
//! paper's fine-tuned RoBERTa models.
//!
//! A structured averaged perceptron (Collins 2002) with the classic NER
//! feature templates: word identity, lowercase form, word shape,
//! prefixes/suffixes, a ±1 context window, and the previous predicted
//! label. Decoding is greedy left-to-right (the previous-label feature
//! carries the sequential signal, as in spaCy's original tagger).
//!
//! Two training regimes reproduce the paper's two systems:
//!
//! * **LM-Human** — [`PerceptronTagger::train_gold`] on the annotated
//!   corpus (`thor_datagen::bio_tags` of gold documents);
//! * **LM-SD** — [`PerceptronTagger::train_weak`]: annotations are
//!   *projected* from the structured table onto unannotated text by
//!   exact matching (distant supervision). Projection conflicts are
//!   resolved toward the most frequent concept, which is precisely the
//!   majority-class bias the paper observes in LM-SD.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use thor_core::{Document, ExtractedEntity};
use thor_data::Table;
use thor_datagen::annotate::GoldEntity;
use thor_datagen::{bio_tags, AnnotatedDoc, Bio};
use thor_index::CandidateEntity;
use thor_text::shape::{prefix, suffix, word_shape};
use thor_text::{normalize_phrase, tokenize};

use crate::automata::AhoCorasickBuilder;
use crate::subject::attribute_sentences;
use crate::Extractor;

/// Tagger hyper-parameters.
#[derive(Debug, Clone)]
pub struct TaggerConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TaggerConfig {
    fn default() -> Self {
        Self {
            epochs: 5,
            seed: 0xBADCAFE,
        }
    }
}

/// Label set: `O` plus `B-c`/`I-c` per concept, interned to indices.
#[derive(Debug, Clone, Default)]
struct LabelSet {
    names: Vec<String>,
    index: HashMap<String, usize>,
}

impl LabelSet {
    fn intern(&mut self, label: &str) -> usize {
        if let Some(&i) = self.index.get(label) {
            return i;
        }
        self.names.push(label.to_string());
        self.index.insert(label.to_string(), self.names.len() - 1);
        self.names.len() - 1
    }
}

fn label_name(bio: &Bio) -> String {
    match bio {
        Bio::B(c) => format!("B-{}", c.to_lowercase()),
        Bio::I(c) => format!("I-{}", c.to_lowercase()),
        Bio::O => "O".to_string(),
    }
}

/// The trained tagger.
#[derive(Debug)]
pub struct PerceptronTagger {
    name: String,
    labels: LabelSet,
    /// feature → per-label weights (averaged).
    weights: HashMap<String, Vec<f64>>,
}

fn features(words: &[String], i: usize, prev_label: &str, out: &mut Vec<String>) {
    let w = &words[i];
    let lower = w.to_lowercase();
    out.clear();
    out.push("bias".to_string());
    out.push(format!("w={lower}"));
    out.push(format!("shape={}", word_shape(w)));
    out.push(format!("pre3={}", prefix(&lower, 3)));
    out.push(format!("suf3={}", suffix(&lower, 3)));
    out.push(format!("suf4={}", suffix(&lower, 4)));
    if i > 0 {
        out.push(format!("w-1={}", words[i - 1].to_lowercase()));
    } else {
        out.push("w-1=<s>".to_string());
    }
    if i + 1 < words.len() {
        out.push(format!("w+1={}", words[i + 1].to_lowercase()));
    } else {
        out.push("w+1=</s>".to_string());
    }
    out.push(format!("prev={prev_label}"));
    out.push(format!("prev+w={prev_label}|{lower}"));
}

impl PerceptronTagger {
    /// Train on gold BIO sentences (the LM-Human regime).
    pub fn train_gold(name: &str, docs: &[AnnotatedDoc], config: &TaggerConfig) -> Self {
        let sentences: Vec<Vec<(String, Bio)>> = docs.iter().flat_map(bio_tags).collect();
        Self::train_sentences(name, sentences, config)
    }

    /// Train on weak annotations projected from the table onto the same
    /// documents (the LM-SD regime). Instances of every concept are
    /// matched exactly (Aho–Corasick, word-aligned); a span matched by
    /// several concepts is labeled with the concept that has the most
    /// instances in the table — the majority-class bias.
    pub fn train_weak(
        name: &str,
        table: &Table,
        docs: &[AnnotatedDoc],
        config: &TaggerConfig,
    ) -> Self {
        let weak: Vec<AnnotatedDoc> = docs
            .iter()
            .map(|d| AnnotatedDoc {
                doc: d.doc.clone(),
                subjects: d.subjects.clone(),
                gold: project_weak_labels(table, &d.doc),
            })
            .collect();
        Self::train_gold(name, &weak, config)
    }

    #[allow(clippy::needless_range_loop)] // perceptron loop mirrors the reference algorithm
    fn train_sentences(
        name: &str,
        sentences: Vec<Vec<(String, Bio)>>,
        config: &TaggerConfig,
    ) -> Self {
        let mut labels = LabelSet::default();
        labels.intern("O");
        let encoded: Vec<(Vec<String>, Vec<usize>)> = sentences
            .iter()
            .map(|sent| {
                let words: Vec<String> = sent.iter().map(|(w, _)| w.clone()).collect();
                let tags: Vec<usize> = sent
                    .iter()
                    .map(|(_, b)| labels.intern(&label_name(b)))
                    .collect();
                (words, tags)
            })
            .collect();

        let n_labels = labels.names.len();
        let mut weights: HashMap<String, Vec<f64>> = HashMap::new();
        let mut totals: HashMap<String, Vec<f64>> = HashMap::new();
        let mut stamps: HashMap<String, Vec<usize>> = HashMap::new();
        let mut step = 0usize;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut order: Vec<usize> = (0..encoded.len()).collect();
        let mut feats = Vec::new();

        for _epoch in 0..config.epochs {
            order.shuffle(&mut rng);
            for &si in &order {
                let (words, gold) = &encoded[si];
                let mut prev = "O".to_string();
                for i in 0..words.len() {
                    step += 1;
                    features(words, i, &prev, &mut feats);
                    // Score labels.
                    let mut scores = vec![0.0f64; n_labels];
                    for f in &feats {
                        if let Some(ws) = weights.get(f) {
                            for (s, w) in scores.iter_mut().zip(ws) {
                                *s += w;
                            }
                        }
                    }
                    let pred = argmax(&scores);
                    let truth = gold[i];
                    if pred != truth {
                        for f in &feats {
                            let ws = weights
                                .entry(f.clone())
                                .or_insert_with(|| vec![0.0; n_labels]);
                            let ts = totals
                                .entry(f.clone())
                                .or_insert_with(|| vec![0.0; n_labels]);
                            let ss = stamps.entry(f.clone()).or_insert_with(|| vec![0; n_labels]);
                            for &(l, delta) in &[(truth, 1.0f64), (pred, -1.0)] {
                                ts[l] += (step - ss[l]) as f64 * ws[l];
                                ss[l] = step;
                                ws[l] += delta;
                            }
                        }
                    }
                    // Teacher forcing on the previous label keeps
                    // training stable on small corpora.
                    prev = labels.names[truth].clone();
                }
            }
        }

        // Average.
        for (f, ws) in &mut weights {
            let ts = totals
                .entry(f.clone())
                .or_insert_with(|| vec![0.0; n_labels]);
            let ss = stamps.entry(f.clone()).or_insert_with(|| vec![0; n_labels]);
            for l in 0..n_labels {
                ts[l] += (step - ss[l]) as f64 * ws[l];
                ws[l] = if step == 0 { 0.0 } else { ts[l] / step as f64 };
            }
        }

        Self {
            name: name.to_string(),
            labels,
            weights,
        }
    }

    /// Tag one tokenized sentence, returning label names.
    fn tag(&self, words: &[String]) -> Vec<String> {
        let n_labels = self.labels.names.len();
        let mut prev = "O".to_string();
        let mut out = Vec::with_capacity(words.len());
        let mut feats = Vec::new();
        for i in 0..words.len() {
            features(words, i, &prev, &mut feats);
            let mut scores = vec![0.0f64; n_labels];
            for f in &feats {
                if let Some(ws) = self.weights.get(f) {
                    for (s, w) in scores.iter_mut().zip(ws) {
                        *s += w;
                    }
                }
            }
            let pred = argmax(&scores);
            prev = self.labels.names[pred].clone();
            out.push(prev.clone());
        }
        out
    }

    /// Decode BIO label sequences into (concept, phrase) spans.
    fn decode_spans(words: &[String], labels: &[String]) -> Vec<(String, String)> {
        let mut spans = Vec::new();
        let mut current: Option<(String, Vec<String>)> = None;
        for (w, l) in words.iter().zip(labels) {
            if let Some(concept) = l.strip_prefix("B-") {
                if let Some((c, ws)) = current.take() {
                    spans.push((c, ws.join(" ")));
                }
                current = Some((concept.to_string(), vec![w.clone()]));
            } else if let Some(concept) = l.strip_prefix("I-") {
                match &mut current {
                    Some((c, ws)) if c == concept => ws.push(w.clone()),
                    // Malformed I without matching B: start a new span.
                    _ => {
                        if let Some((c, ws)) = current.take() {
                            spans.push((c, ws.join(" ")));
                        }
                        current = Some((concept.to_string(), vec![w.clone()]));
                    }
                }
            } else {
                if let Some((c, ws)) = current.take() {
                    spans.push((c, ws.join(" ")));
                }
            }
        }
        if let Some((c, ws)) = current {
            spans.push((c, ws.join(" ")));
        }
        spans
    }

    /// Tag `phrase` and decode the BIO spans into candidates. The
    /// tagger has no seed instance to report (`matched_instance` stays
    /// empty) and no graded score — every decoded span counts 1.0.
    pub fn candidates(&self, phrase: &str) -> Vec<CandidateEntity> {
        let words: Vec<String> = tokenize(phrase).into_iter().map(|t| t.text).collect();
        if words.is_empty() {
            return Vec::new();
        }
        let labels = self.tag(&words);
        let mut out = Vec::new();
        for (concept, span) in Self::decode_spans(&words, &labels) {
            let span = normalize_phrase(&span);
            if span.is_empty() {
                continue;
            }
            out.push(CandidateEntity {
                phrase: span,
                concept,
                matched_instance: String::new(),
                semantic_score: 1.0,
                cluster_score: 1.0,
            });
        }
        out
    }
}

fn argmax(scores: &[f64]) -> usize {
    let mut best = 0;
    for (i, s) in scores.iter().enumerate() {
        if *s > scores[best] {
            best = i;
        }
    }
    best
}

/// Project the table's instances onto a document by exact matching
/// (distant supervision). Conflicting concepts resolve to the one with
/// more table instances.
pub fn project_weak_labels(table: &Table, doc: &Document) -> Vec<GoldEntity> {
    let mut builder = AhoCorasickBuilder::new().ascii_case_insensitive(true);
    let mut patterns: Vec<(String, String)> = Vec::new();
    let mut concept_sizes: HashMap<String, usize> = HashMap::new();
    for concept in table.schema().concepts() {
        let values = table.column_values(concept.name());
        concept_sizes.insert(concept.name().to_string(), values.len());
        for v in values {
            let norm = normalize_phrase(&v);
            if norm.is_empty() {
                continue;
            }
            builder.add_pattern(norm.as_bytes());
            patterns.push((concept.name().to_string(), norm));
        }
    }
    let automaton = builder.build();
    let normalized = normalize_phrase(&doc.text);

    // Group matches by span; resolve concept conflicts to the largest
    // concept (majority bias).
    let mut by_span: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
    for m in automaton.find_words(&normalized) {
        by_span.entry((m.start, m.end)).or_default().push(m.pattern);
    }
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for ((_, _), pids) in by_span {
        let &pid = pids
            .iter()
            .max_by_key(|&&p| concept_sizes.get(&patterns[p].0).copied().unwrap_or(0))
            .expect("non-empty span group");
        let (concept, phrase) = &patterns[pid];
        if seen.insert((concept.clone(), phrase.clone())) {
            out.push(GoldEntity {
                subject: String::new(),
                concept: concept.clone(),
                phrase: phrase.clone(),
            });
        }
    }
    out
}

impl Extractor for PerceptronTagger {
    fn name(&self) -> &str {
        &self.name
    }

    fn extract(&self, table: &Table, docs: &[Document]) -> Vec<ExtractedEntity> {
        let subjects: Vec<String> = table.subjects().map(str::to_string).collect();
        let mut out = Vec::new();
        for doc in docs {
            for (subject, sentence) in attribute_sentences(&doc.text, &subjects) {
                for c in self.candidates(&sentence.text) {
                    out.push(ExtractedEntity {
                        subject: subject.clone(),
                        concept: c.concept,
                        phrase: c.phrase,
                        score: 1.0,
                        matched_instance: c.matched_instance,
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

#[cfg(test)]
mod tests {
    use super::*;
    use thor_data::Schema;

    fn annotated(texts_and_gold: &[(&str, &[(&str, &str)])]) -> Vec<AnnotatedDoc> {
        texts_and_gold
            .iter()
            .enumerate()
            .map(|(i, (text, gold))| AnnotatedDoc {
                doc: Document::new(format!("d{i}"), *text),
                subjects: vec!["S".into()],
                gold: gold
                    .iter()
                    .map(|(c, p)| GoldEntity {
                        subject: "S".into(),
                        concept: c.to_string(),
                        phrase: p.to_string(),
                    })
                    .collect(),
            })
            .collect()
    }

    fn training_docs() -> Vec<AnnotatedDoc> {
        annotated(&[
            (
                "The tumor damages the brainex badly.",
                &[("Anatomy", "brainex")],
            ),
            (
                "Patients develop cortonosis quickly.",
                &[("Complication", "cortonosis")],
            ),
            (
                "The nervexum hurts and shows cortonosis.",
                &[("Anatomy", "nervexum"), ("Complication", "cortonosis")],
            ),
            (
                "Doctors saw damage to the spinalex region.",
                &[("Anatomy", "spinalex")],
            ),
            (
                "Severe meningosis develops in rare cases.",
                &[("Complication", "meningosis")],
            ),
            (
                "The lungum and the heartex suffer most.",
                &[("Anatomy", "lungum"), ("Anatomy", "heartex")],
            ),
        ])
    }

    #[test]
    fn learns_training_vocabulary() {
        let tagger =
            PerceptronTagger::train_gold("LM-Test", &training_docs(), &TaggerConfig::default());
        let table = Table::new(Schema::new(
            ["Disease", "Anatomy", "Complication"],
            "Disease",
        ));
        let mut t = table;
        t.row_for_subject("S");
        let docs = vec![Document::new("t", "The brainex shows cortonosis.")];
        let found = tagger.extract(&t, &docs);
        assert!(
            found
                .iter()
                .any(|e| e.phrase == "brainex" && e.concept.eq_ignore_ascii_case("anatomy")),
            "{found:?}"
        );
        assert!(found
            .iter()
            .any(|e| e.phrase == "cortonosis" && e.concept.eq_ignore_ascii_case("complication")));
    }

    #[test]
    fn generalizes_via_suffix_features() {
        // Unseen word with a training-suffix: "-osis" ⇒ Complication.
        let tagger =
            PerceptronTagger::train_gold("LM-Test", &training_docs(), &TaggerConfig::default());
        let mut t = Table::new(Schema::new(
            ["Disease", "Anatomy", "Complication"],
            "Disease",
        ));
        t.row_for_subject("S");
        let docs = vec![Document::new(
            "t",
            "Severe fibrosis develops in rare cases.",
        )];
        let found = tagger.extract(&t, &docs);
        // We only require that, IF the model fires on the unseen word, it
        // uses the suffix-consistent class. Firing at all is a bonus.
        for e in &found {
            if e.phrase == "fibrosis" {
                assert!(e.concept.eq_ignore_ascii_case("complication"), "{found:?}");
            }
        }
    }

    #[test]
    fn decode_spans_handles_malformed_bio() {
        let words: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let labels: Vec<String> = ["I-x", "B-y", "I-z"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let spans = PerceptronTagger::decode_spans(&words, &labels);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0], ("x".to_string(), "a".to_string()));
    }

    #[test]
    fn weak_projection_from_table() {
        let mut table = Table::new(Schema::new(
            ["Disease", "Anatomy", "Complication"],
            "Disease",
        ));
        table.fill_slot("S", "Anatomy", "brainex");
        table.fill_slot("S", "Complication", "cortonosis");
        let doc = Document::new("d", "The brainex shows cortonosis and more.");
        let weak = project_weak_labels(&table, &doc);
        assert_eq!(weak.len(), 2);
        assert!(weak
            .iter()
            .any(|g| g.phrase == "brainex" && g.concept == "Anatomy"));
    }

    #[test]
    fn weak_conflicts_resolve_to_majority_concept() {
        let mut table = Table::new(Schema::new(
            ["Disease", "Anatomy", "Complication"],
            "Disease",
        ));
        // "bloodex" in both concepts; Anatomy has more instances.
        table.fill_slot("S", "Anatomy", "bloodex");
        table.fill_slot("S", "Anatomy", "nervexum");
        table.fill_slot("S", "Anatomy", "heartex");
        table.fill_slot("S", "Complication", "bloodex");
        let doc = Document::new("d", "The bloodex was affected.");
        let weak = project_weak_labels(&table, &doc);
        assert_eq!(weak.len(), 1);
        assert_eq!(weak[0].concept, "Anatomy");
    }

    #[test]
    fn weak_training_runs_end_to_end() {
        let mut table = Table::new(Schema::new(
            ["Disease", "Anatomy", "Complication"],
            "Disease",
        ));
        table.fill_slot("S", "Anatomy", "brainex");
        table.fill_slot("S", "Complication", "cortonosis");
        let docs = training_docs();
        let tagger = PerceptronTagger::train_weak("LM-SD", &table, &docs, &TaggerConfig::default());
        let found = tagger.extract(&table, &[docs[2].doc.clone()]);
        // The weakly supervised model should at least find the table
        // instances it was projected from.
        assert!(found.iter().any(|e| e.phrase == "cortonosis"), "{found:?}");
    }

    #[test]
    fn candidates_decode_spans() {
        let tagger =
            PerceptronTagger::train_gold("LM-Test", &training_docs(), &TaggerConfig::default());
        let candidates = tagger.candidates("The brainex shows cortonosis.");
        assert!(
            candidates
                .iter()
                .any(|c| c.phrase == "brainex" && c.concept.eq_ignore_ascii_case("anatomy")),
            "{candidates:?}"
        );
    }

    #[test]
    fn empty_training_is_safe() {
        let tagger = PerceptronTagger::train_gold("LM-0", &[], &TaggerConfig::default());
        let mut t = Table::new(Schema::new(["D", "A"], "D"));
        t.row_for_subject("S");
        let found = tagger.extract(&t, &[Document::new("d", "Some text here.")]);
        assert!(found.is_empty());
    }
}

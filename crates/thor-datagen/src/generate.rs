//! The dataset generator.
//!
//! From a [`DatasetSpec`] this module synthesizes, deterministically:
//! concept vocabularies, a semantic space, per-subject gold instance
//! assignments, partial source tables integrated by full disjunction,
//! and an annotated document corpus split into train/validation/test.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use thor_core::Document;
use thor_data::{full_disjunction, Schema, Table};
use thor_embed::{SemanticSpaceBuilder, VectorStore};

use crate::annotate::{AnnotatedDoc, GoldEntity};
use crate::spec::DatasetSpec;
use crate::vocab::{concept_vocab, modifier_pool, ConceptVocab, SuffixFamily};

/// Corpus split identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// Training documents (LM-Human's annotation budget).
    Train,
    /// Validation documents.
    Validation,
    /// Test documents (all systems are evaluated here).
    Test,
}

/// Everything the experiments need, generated from one seed.
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    /// Dataset name (from the spec).
    pub name: String,
    /// The seed it was generated from (from the spec); experiments seed
    /// their own randomness, such as the simulated LLMs', from it.
    pub seed: u64,
    /// The concept-oriented schema (concept 0 is the subject).
    pub schema: Schema,
    /// The integrated table `R` — full disjunction of the partial
    /// sources; covers train+validation subjects with partial knowledge.
    pub table: Table,
    /// The partial sources `R` was integrated from.
    pub sources: Vec<Table>,
    /// The synthetic word-vector table.
    pub store: VectorStore,
    /// Annotated documents per split.
    pub train: Vec<AnnotatedDoc>,
    /// Validation documents.
    pub validation: Vec<AnnotatedDoc>,
    /// Test documents.
    pub test: Vec<AnnotatedDoc>,
}

impl GeneratedDataset {
    /// Documents of a split.
    pub fn docs(&self, split: Split) -> &[AnnotatedDoc] {
        match split {
            Split::Train => &self.train,
            Split::Validation => &self.validation,
            Split::Test => &self.test,
        }
    }

    /// The gold test table `R_test`: test subjects with every annotated
    /// entity slot-filled (built from the test gold, like the paper's
    /// ground-truth test tables).
    pub fn gold_test_table(&self) -> Table {
        let mut t = Table::new(self.schema.clone());
        let subject_key = self.schema.subject().key();
        for doc in &self.test {
            for s in &doc.subjects {
                t.row_for_subject(s);
            }
            for g in &doc.gold {
                if g.concept.to_lowercase() != subject_key {
                    t.fill_slot(&g.subject, &g.concept, &g.phrase);
                }
            }
        }
        t
    }

    /// The table systems run against at evaluation time: the integrated
    /// table `R` (fine-tuning knowledge from train+validation subjects)
    /// plus *stripped* rows for the test subjects (subject key only —
    /// "we deleted the instances of all concepts from these test
    /// tables except for the subject concepts").
    pub fn enrichment_table(&self) -> Table {
        let mut t = self.table.clone();
        for doc in &self.test {
            for s in &doc.subjects {
                t.row_for_subject(s);
            }
        }
        t
    }

    /// All plain documents of a split.
    pub fn documents(&self, split: Split) -> Vec<Document> {
        self.docs(split).iter().map(|d| d.doc.clone()).collect()
    }
}

/// Verbs preferred by each concept (cycled by concept index). All are
/// in `thor-nlp`'s verb lexicon so sentences parse correctly, and they
/// give sequence taggers the *contextual* signal real language models
/// exploit ("symptoms *include* X" vs "doctors *recommend* Y").
const CONCEPT_VERBS: &[&str] = &[
    "involves",
    "causes",
    "requires",
    "includes",
    "shows",
    "recommends",
    "reports",
    "presents",
    "develops",
    "treats",
    "prevents",
    "needs",
];

/// Shifted verb inventory used by the test split when
/// `test_style_shift` is on: different verbs AND a shifted
/// concept-to-verb mapping, so context features learned on the training
/// style mislead rather than transfer.
const CONCEPT_VERBS_SHIFTED: &[&str] = &[
    "holds", "earns", "takes", "uses", "knows", "speaks", "manages", "receives", "studies",
    "works", "makes", "helps",
];

/// Sentence templates; `{S}` is the subject, `{E*}` entity slots.
const TEMPLATES_1: &[&str] = &[
    "{S} often involves the {E1}.",
    "{S} requires {E1} in severe cases.",
    "Doctors report {E1} in many cases.",
    "It frequently presents with {E1}.",
    "Specialists recommend {E1} for most patients.",
];
const TEMPLATES_2: &[&str] = &[
    "It may cause {E1} and {E2}.",
    "{S} shows {E1} and {E2} over time.",
    "Records include {E1} and also {E2}.",
];
const TEMPLATES_3: &[&str] = &[
    "Common findings include {E1}, {E2} and {E3}.",
    "Reports list {E1}, {E2} and {E3}.",
];

/// Entity-free sentences mentioning a distractor word `{D}` — the
/// false-positive bait.
const DISTRACTOR_SENTENCES: &[&str] = &[
    "Experts still debate the {D} in clinics.",
    "The {D} remains under careful review.",
    "Some articles mention the {D} without evidence.",
    "Both the {D} and the {D2} remain under review.",
    "Reviews contrast the {D} with the {D2}.",
];

const NOISE_SENTENCES: &[&str] = &[
    "Many people recover fully with early care.",
    "Regular follow-up visits remain very important.",
    "Support from family helps during recovery.",
    "Awareness has improved greatly over the years.",
    "Early attention makes a clear difference.",
];

/// Per-subject gold assignment: concept index → instances.
type Assignment = BTreeMap<usize, Vec<String>>;

/// Generate a dataset from its spec.
#[allow(clippy::needless_range_loop)]
pub fn generate(spec: &DatasetSpec) -> GeneratedDataset {
    let mut rng = StdRng::seed_from_u64(spec.seed);

    // ---- vocabularies ----
    let modifiers = modifier_pool(&mut rng, 40);
    let mut vocabs: Vec<ConceptVocab> = Vec::with_capacity(spec.concepts.len());
    for (i, cs) in spec.concepts.iter().enumerate() {
        let neighbor_heads: Vec<String> = cs
            .correlate_with
            .map(|(j, _)| vocabs[j].heads.clone())
            .unwrap_or_default();
        vocabs.push(concept_vocab(
            &mut rng,
            &cs.name,
            &SuffixFamily::builtin(i),
            cs.head_count,
            cs.instance_count,
            &modifiers,
            &neighbor_heads,
            cs.ambiguity,
            spec.irregular_rate,
        ));
    }

    // ---- phrase collisions ----
    // An instance of a correlated concept may also belong to its
    // partner's universe: the same phrase under two concepts.
    for i in 0..spec.concepts.len() {
        let Some((j, _)) = spec.concepts[i].correlate_with else {
            continue;
        };
        let shared: Vec<String> = vocabs[i]
            .instances
            .iter()
            .filter(|_| rng.random::<f64>() < spec.phrase_collision)
            .cloned()
            .collect();
        for phrase in shared {
            if !vocabs[j].instances.contains(&phrase) {
                vocabs[j].instances.push(phrase);
            }
        }
    }

    // ---- distractor words ----
    // Orthographically plausible words at each topic's periphery,
    // mentioned in entity-free sentences.
    let mut distractors: Vec<String> = Vec::new();
    let mut distractors_by_concept: Vec<Vec<String>> = Vec::new();
    for i in 0..spec.concepts.len() {
        let family = SuffixFamily::builtin(i);
        let mut words = Vec::with_capacity(spec.distractors_per_concept);
        let mut guard = 0;
        while words.len() < spec.distractors_per_concept && guard < 1000 {
            guard += 1;
            let w = family.word(&mut rng);
            if !words.contains(&w) && !vocabs[i].heads.contains(&w) {
                words.push(w);
            }
        }
        distractors.extend(words.iter().cloned());
        distractors_by_concept.push(words);
    }

    // ---- semantic space ----
    let space_seed = rng.random::<u64>();
    let mut builder = SemanticSpaceBuilder::new(spec.dim, space_seed).spread(spec.spread);
    for (i, cs) in spec.concepts.iter().enumerate() {
        let topic = cs.name.to_lowercase();
        builder = match cs.correlate_with {
            Some((j, mix)) => {
                builder.correlated_topic(&topic, &spec.concepts[j].name.to_lowercase(), mix)
            }
            None => builder.topic(&topic),
        };
        // Embedding coverage: drop a fraction of head words (never the
        // subject concept's — segmentation must stay robust).
        let coverage = if i == 0 { 1.0 } else { spec.embedding_coverage };
        let covered: Vec<&str> = vocabs[i]
            .heads
            .iter()
            .filter(|_| rng.random::<f64>() < coverage)
            .map(String::as_str)
            .collect();
        builder = builder.words(&topic, covered);
        // Distractors sit at the topic's periphery: close enough to be
        // pulled in by a lenient τ-expansion, wrong nonetheless.
        let periphery: Vec<&str> = distractors_by_concept[i]
            .iter()
            .map(String::as_str)
            .collect();
        builder = builder.words_with_spread(&topic, periphery, spec.spread * 1.35);
    }
    let generic: Vec<&str> = modifiers.iter().map(String::as_str).collect();
    builder = builder.generic_words(generic);
    let store = builder.build().into_store();

    // ---- novel instance pools ----
    // A fraction of every non-subject concept's universe never enters
    // the integrated table; documents still mention those instances.
    let mut novel: Vec<std::collections::BTreeSet<String>> =
        vec![std::collections::BTreeSet::new(); spec.concepts.len()];
    for (ci, vocab) in vocabs.iter().enumerate().skip(1) {
        for inst in &vocab.instances {
            if rng.random::<f64>() < spec.novel_rate {
                novel[ci].insert(inst.clone());
            }
        }
    }

    // ---- subjects ----
    let (n_train, n_val, n_test) = spec.subjects;
    let n_total = n_train + n_val + n_test;
    assert!(
        vocabs[0].instances.len() >= n_total,
        "subject concept universe ({}) smaller than requested subjects ({n_total})",
        vocabs[0].instances.len()
    );
    let mut subject_pool = vocabs[0].instances.clone();
    subject_pool.shuffle(&mut rng);
    let subjects: Vec<String> = subject_pool[..n_total].to_vec();
    let other_subject_mentions: Vec<String> = subject_pool[n_total..].to_vec();

    // ---- gold assignments ----
    // Train/validation subjects draw only from the common pool; test
    // subjects mix in novel instances — unseen by both the integrated
    // table and any annotated training text.
    let common_pool: Vec<Vec<&String>> = vocabs
        .iter()
        .enumerate()
        .map(|(ci, v)| {
            v.instances
                .iter()
                .filter(|i| !novel[ci].contains(*i))
                .collect()
        })
        .collect();
    let novel_pool: Vec<Vec<&String>> = vocabs
        .iter()
        .enumerate()
        .map(|(ci, v)| {
            v.instances
                .iter()
                .filter(|i| novel[ci].contains(*i))
                .collect()
        })
        .collect();
    let total_weight: f64 = spec.concepts.iter().skip(1).map(|c| c.mention_weight).sum();
    let slots_per_subject = 18.0;
    let mut assignments: Vec<Assignment> = Vec::with_capacity(n_total);
    for si in 0..n_total {
        let is_test = si >= n_train + n_val;
        let mut a = Assignment::new();
        for (ci, cs) in spec.concepts.iter().enumerate().skip(1) {
            let expected = (cs.mention_weight / total_weight * slots_per_subject).max(0.5);
            let k = (expected.round() as usize + rng.random_range(0..2usize)).max(1);
            let mut chosen = Vec::with_capacity(k);
            for _ in 0..k {
                let use_novel = is_test
                    && !novel_pool[ci].is_empty()
                    && rng.random::<f64>() < spec.test_novel_mix;
                let pool: &[&String] = if use_novel {
                    &novel_pool[ci]
                } else {
                    &common_pool[ci]
                };
                if pool.is_empty() {
                    continue;
                }
                let inst = pool[rng.random_range(0..pool.len())];
                if !chosen.contains(inst) {
                    chosen.push(inst.clone());
                }
            }
            if chosen.is_empty() {
                if let Some(inst) = vocabs[ci].instances.first() {
                    chosen.push(inst.clone());
                }
            }
            a.insert(ci, chosen);
        }
        assignments.push(a);
    }

    // ---- partial sources + integrated table ----
    let schema = Schema::new(
        spec.concepts.iter().map(|c| c.name.as_str()),
        &spec.concepts[0].name,
    );
    let mut sources: Vec<Table> = Vec::with_capacity(spec.source_count);
    // Each source covers a random subset of slot concepts; round-robin
    // guarantees every concept is covered somewhere.
    let slot_count = spec.concepts.len() - 1;
    let mut source_concepts: Vec<Vec<usize>> = Vec::new();
    for s in 0..spec.source_count {
        let mut cover: Vec<usize> = vec![1 + (s % slot_count)];
        for ci in 1..spec.concepts.len() {
            if !cover.contains(&ci) && rng.random::<f64>() < 0.3 {
                cover.push(ci);
            }
        }
        cover.sort_unstable();
        source_concepts.push(cover);
    }
    for cover in &source_concepts {
        let mut concepts = vec![spec.concepts[0].name.clone()];
        concepts.extend(cover.iter().map(|&ci| spec.concepts[ci].name.clone()));
        let name0 = concepts[0].clone();
        sources.push(Table::new(Schema::new(concepts, &name0)));
    }
    // Table knowledge comes from train+validation subjects only.
    for (si, subject) in subjects.iter().enumerate().take(n_train + n_val) {
        for (&ci, instances) in &assignments[si] {
            for inst in instances {
                if novel[ci].contains(inst) {
                    continue; // novel instances never reach the table
                }
                if rng.random::<f64>() >= spec.table_coverage {
                    continue;
                }
                // Pick a source covering this concept.
                let candidates: Vec<usize> = source_concepts
                    .iter()
                    .enumerate()
                    .filter_map(|(s, cover)| cover.contains(&ci).then_some(s))
                    .collect();
                let s = candidates[rng.random_range(0..candidates.len())];
                sources[s].fill_slot(subject, &spec.concepts[ci].name, inst);
            }
        }
    }
    // Integration noise: junk values that survived integration. They
    // are drawn from the distractor vocabulary, so lenient extractors
    // reproduce them as spurious predictions at any threshold.
    for (ci, cs) in spec.concepts.iter().enumerate().skip(1) {
        let junk_count = ((cs.instance_count as f64) * spec.table_noise).round() as usize;
        for _ in 0..junk_count {
            if distractors_by_concept[ci].is_empty() || n_train + n_val == 0 {
                break;
            }
            let junk =
                &distractors_by_concept[ci][rng.random_range(0..distractors_by_concept[ci].len())];
            let subject = &subjects[rng.random_range(0..n_train + n_val)];
            let candidates: Vec<usize> = source_concepts
                .iter()
                .enumerate()
                .filter_map(|(s, cover)| cover.contains(&ci).then_some(s))
                .collect();
            let s = candidates[rng.random_range(0..candidates.len())];
            sources[s].fill_slot(subject, &cs.name, junk);
        }
    }

    let source_refs: Vec<&Table> = sources.iter().collect();
    let mut table = full_disjunction(&source_refs);
    // Integrated tables list all known subjects, even instance-less ones.
    for subject in subjects.iter().take(n_train + n_val) {
        table.row_for_subject(subject);
    }

    // ---- documents ----
    let mut train = Vec::new();
    let mut validation = Vec::new();
    let mut test = Vec::new();
    let mut doc_counter = 0usize;

    let emit_docs = |range: std::ops::Range<usize>,
                     out: &mut Vec<AnnotatedDoc>,
                     rng: &mut StdRng,
                     doc_counter: &mut usize,
                     is_test: bool| {
        let split_subjects: Vec<usize> = range.collect();
        if spec.subjects_per_doc > 1 {
            // Résumé style: bundle several subjects per document.
            for chunk in split_subjects.chunks(spec.subjects_per_doc) {
                *doc_counter += 1;
                out.push(compose_doc(
                    &format!("doc{:05}", doc_counter),
                    chunk,
                    &subjects,
                    &assignments,
                    spec,
                    &distractors,
                    &other_subject_mentions,
                    is_test,
                    rng,
                ));
            }
        } else {
            for &si in &split_subjects {
                for _ in 0..spec.docs_per_subject {
                    *doc_counter += 1;
                    out.push(compose_doc(
                        &format!("doc{:05}", doc_counter),
                        &[si],
                        &subjects,
                        &assignments,
                        spec,
                        &distractors,
                        &other_subject_mentions,
                        is_test,
                        rng,
                    ));
                }
            }
        }
    };

    emit_docs(0..n_train, &mut train, &mut rng, &mut doc_counter, false);
    emit_docs(
        n_train..n_train + n_val,
        &mut validation,
        &mut rng,
        &mut doc_counter,
        false,
    );
    emit_docs(
        n_train + n_val..n_total,
        &mut test,
        &mut rng,
        &mut doc_counter,
        spec.test_style_shift,
    );

    GeneratedDataset {
        name: spec.name.clone(),
        seed: spec.seed,
        schema,
        table,
        sources,
        store,
        train,
        validation,
        test,
    }
}

/// Compose one document covering `subject_indices`.
#[allow(clippy::too_many_arguments)]
fn compose_doc(
    id: &str,
    subject_indices: &[usize],
    subjects: &[String],
    assignments: &[Assignment],
    spec: &DatasetSpec,
    distractors: &[String],
    other_subject_mentions: &[String],
    style_shift: bool,
    rng: &mut StdRng,
) -> AnnotatedDoc {
    let mut text = String::new();
    let mut gold: Vec<GoldEntity> = Vec::new();
    let mut doc_subjects = Vec::new();
    let subject_concept = &spec.concepts[0].name;

    // Mention weights for concept sampling.
    let weights: Vec<f64> = spec
        .concepts
        .iter()
        .skip(1)
        .map(|c| c.mention_weight)
        .collect();
    let weight_sum: f64 = weights.iter().sum();

    for &si in subject_indices {
        let subject = &subjects[si];
        doc_subjects.push(subject.clone());

        // Intro sentence anchors the subject (a gold subject-concept
        // entity).
        text.push_str(&format!("{subject} is a widely discussed case. "));
        gold.push(GoldEntity {
            subject: subject.clone(),
            concept: subject_concept.clone(),
            phrase: subject.clone(),
        });

        for s in 0..spec.sentences_per_subject {
            // Pick a concept by weight.
            let mut pick = rng.random::<f64>() * weight_sum;
            let mut ci = 1;
            for (k, w) in weights.iter().enumerate() {
                pick -= w;
                if pick <= 0.0 {
                    ci = k + 1;
                    break;
                }
            }
            let pool = &assignments[si][&ci];
            let n_entities = match rng.random_range(0..6) {
                0..=2 => 1usize,
                3..=4 => 2,
                _ => 3,
            }
            .min(pool.len());
            let mut picks: Vec<&String> = Vec::with_capacity(n_entities);
            while picks.len() < n_entities {
                let cand = &pool[rng.random_range(0..pool.len())];
                if !picks.contains(&cand) {
                    picks.push(cand);
                }
            }
            // 70% of entity sentences use the concept's preferred verb
            // (contextual signal); the rest use a generic template.
            let verb = if style_shift {
                // Different inventory AND shifted mapping.
                CONCEPT_VERBS_SHIFTED[(ci + 5) % CONCEPT_VERBS_SHIFTED.len()]
            } else {
                CONCEPT_VERBS[ci % CONCEPT_VERBS.len()]
            };
            let concept_specific = rng.random::<f64>() < 0.85;
            let template: String = if concept_specific {
                match picks.len() {
                    1 => format!("{{S}} often {verb} the {{E1}}."),
                    2 => format!("It {verb} {{E1}} and {{E2}}."),
                    _ => format!("{{S}} {verb} {{E1}}, {{E2}} and {{E3}}."),
                }
            } else {
                match picks.len() {
                    1 => TEMPLATES_1[rng.random_range(0..TEMPLATES_1.len())].to_string(),
                    2 => TEMPLATES_2[rng.random_range(0..TEMPLATES_2.len())].to_string(),
                    _ => TEMPLATES_3[rng.random_range(0..TEMPLATES_3.len())].to_string(),
                }
            };
            let mut sentence = template.replace("{S}", subject);
            for (k, inst) in picks.iter().enumerate() {
                sentence = sentence.replace(&format!("{{E{}}}", k + 1), inst);
                gold.push(GoldEntity {
                    subject: subject.clone(),
                    concept: spec.concepts[ci].name.clone(),
                    phrase: (*inst).clone(),
                });
            }
            text.push_str(&sentence);
            text.push(' ');

            // Occasionally cross-mention another subject-concept
            // instance (the paper's 'Disease' gold entities beyond the
            // document's own subject).
            if s % 4 == 3 && !other_subject_mentions.is_empty() {
                let other =
                    &other_subject_mentions[rng.random_range(0..other_subject_mentions.len())];
                text.push_str(&format!("Related cases such as {other} are documented. "));
                gold.push(GoldEntity {
                    subject: subject.clone(),
                    concept: subject_concept.clone(),
                    phrase: other.clone(),
                });
            }
            // Noise sentence with no entities.
            if s % 3 != 0 {
                if !distractors.is_empty() && rng.random::<f64>() < 0.55 {
                    let d = &distractors[rng.random_range(0..distractors.len())];
                    let d2 = &distractors[rng.random_range(0..distractors.len())];
                    let template =
                        DISTRACTOR_SENTENCES[rng.random_range(0..DISTRACTOR_SENTENCES.len())];
                    text.push_str(&template.replace("{D2}", d2).replace("{D}", d));
                } else {
                    text.push_str(NOISE_SENTENCES[rng.random_range(0..NOISE_SENTENCES.len())]);
                }
                text.push(' ');
            }
        }
    }

    AnnotatedDoc {
        doc: Document::new(id, text.trim_end()),
        subjects: doc_subjects,
        gold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DatasetSpec;

    fn small() -> GeneratedDataset {
        generate(&DatasetSpec::disease_az(7, 0.05))
    }

    #[test]
    fn deterministic() {
        let a = generate(&DatasetSpec::disease_az(9, 0.05));
        let b = generate(&DatasetSpec::disease_az(9, 0.05));
        assert_eq!(a.test[0].doc.text, b.test[0].doc.text);
        assert_eq!(a.table.instance_count(), b.table.instance_count());
        let c = generate(&DatasetSpec::disease_az(10, 0.05));
        assert_ne!(a.test[0].doc.text, c.test[0].doc.text);
    }

    #[test]
    fn split_sizes_match_spec() {
        let spec = DatasetSpec::disease_az(7, 0.05);
        let d = generate(&spec);
        assert_eq!(d.train.len(), spec.subjects.0 * spec.docs_per_subject);
        assert_eq!(d.validation.len(), spec.subjects.1 * spec.docs_per_subject);
        assert_eq!(d.test.len(), spec.subjects.2 * spec.docs_per_subject);
    }

    #[test]
    fn resume_bundles_subjects() {
        let spec = DatasetSpec::resume(7, 0.1);
        let d = generate(&spec);
        assert!(d.test.iter().all(|doc| doc.subjects.len() <= 5));
        assert!(d.test.iter().any(|doc| doc.subjects.len() == 5));
    }

    #[test]
    fn gold_entities_appear_in_text() {
        let d = small();
        for doc in d.test.iter().take(3) {
            for g in &doc.gold {
                assert!(
                    doc.doc.text.contains(&g.phrase),
                    "gold phrase `{}` missing from doc text",
                    g.phrase
                );
            }
        }
    }

    #[test]
    fn table_covers_only_train_val_subjects() {
        let d = small();
        for doc in &d.test {
            for s in &doc.subjects {
                assert!(
                    d.table.get_row(s).is_none(),
                    "test subject {s} leaked into R"
                );
            }
        }
        // Enrichment table adds them back, stripped.
        let et = d.enrichment_table();
        for doc in &d.test {
            for s in &doc.subjects {
                let row = et.get_row(s).expect("stripped row exists");
                let filled = row.cells().iter().filter(|c| !c.is_null()).count();
                assert_eq!(filled, 1, "test row must hold only the subject");
            }
        }
    }

    #[test]
    fn integrated_table_is_sparse() {
        let d = generate(&DatasetSpec::disease_az(7, 0.1));
        let report = thor_data::sparsity(&d.table);
        assert!(
            report.ratio > 0.05,
            "integration should produce missing values"
        );
        assert!(report.ratio < 1.0, "but not only missing values");
    }

    #[test]
    fn gold_test_table_nonempty() {
        let d = small();
        let gold = d.gold_test_table();
        assert!(!gold.is_empty());
        assert!(gold.instance_count() > gold.len(), "slots are filled");
    }

    #[test]
    fn store_covers_most_table_instances() {
        let d = small();
        let mut covered = 0usize;
        let mut total = 0usize;
        for concept in d.schema.concepts().iter().skip(1) {
            for inst in d.table.column_values(concept.name()) {
                total += 1;
                if d.store.embed_phrase(&inst).is_some() {
                    covered += 1;
                }
            }
        }
        assert!(total > 0);
        let coverage = covered as f64 / total as f64;
        assert!(coverage > 0.5, "coverage {coverage} too low");
    }

    #[test]
    fn some_test_gold_is_not_in_table() {
        // The generalization gap: test documents mention instances the
        // integrated table has never seen.
        let d = generate(&DatasetSpec::disease_az(7, 0.1));
        let mut known = 0usize;
        let mut novel = 0usize;
        for doc in &d.test {
            for g in &doc.gold {
                if d.schema.index_of(&g.concept) == Some(d.schema.subject_index()) {
                    continue;
                }
                let column = d.table.column_values(&g.concept);
                if column.iter().any(|v| v.eq_ignore_ascii_case(&g.phrase)) {
                    known += 1;
                } else {
                    novel += 1;
                }
            }
        }
        assert!(novel > 0, "every gold instance known — no OOV challenge");
        assert!(
            known > 0,
            "no gold instance known — baseline would be useless"
        );
    }
}

//! Criterion micro-benches for the substrate crates: string similarity,
//! tokenization, multi-pattern matching, POS tagging, parsing, the text
//! front end per corpus sentence, the integration operators,
//! segmentation against the table's subjects, entity extraction with a
//! cold and a warm phrase memo, and the per-request table work of
//! serving one document.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;

use thor_baselines::automata::AhoCorasickBuilder;
use thor_core::segment::segment;
use thor_core::slotfill::slot_fill;
use thor_core::{PipelineMetrics, ResilientOptions, RunMode, SegmentationMode, Thor, ThorConfig};
use thor_data::{full_disjunction, to_csv, Schema, Table};
use thor_datagen::{generate, DatasetSpec, Split};
use thor_nlp::{chunk_sentence, noun_phrases, parse_dependencies, RuleTagger, Tagger};
use thor_text::{
    gestalt_similarity, jaccard_words, levenshtein, split_sentences, token_spans, tokenize,
};

const SENTENCE: &str =
    "Acoustic Neuroma is a slow-growing non-cancerous brain tumor that may cause \
     unsteadiness, deafness and severe hearing loss in many patients.";

fn bench_text(c: &mut Criterion) {
    let mut g = c.benchmark_group("text");
    g.bench_function("tokenize_sentence", |b| {
        b.iter(|| tokenize(black_box(SENTENCE)))
    });
    let doc = SENTENCE.repeat(50);
    g.bench_function("split_sentences_50", |b| {
        b.iter(|| split_sentences(black_box(&doc)))
    });
    g.bench_function("gestalt_short", |b| {
        b.iter(|| {
            gestalt_similarity(
                black_box("non-cancerous brain tumor"),
                black_box("skin cancer"),
            )
        })
    });
    g.bench_function("jaccard_short", |b| {
        b.iter(|| {
            jaccard_words(
                black_box("non-cancerous brain tumor"),
                black_box("skin cancer"),
            )
        })
    });
    g.bench_function("levenshtein_short", |b| {
        b.iter(|| levenshtein(black_box("unsteadiness"), black_box("uneasiness")))
    });
    g.finish();
}

fn bench_automata(c: &mut Criterion) {
    let mut g = c.benchmark_group("automata");
    let patterns: Vec<String> = (0..500).map(|i| format!("pattern{i:03}word")).collect();
    g.bench_function("build_500_patterns", |b| {
        b.iter(|| {
            let mut builder = AhoCorasickBuilder::new();
            builder.add_patterns(patterns.iter());
            builder.build()
        })
    });
    let mut builder = AhoCorasickBuilder::new();
    builder.add_patterns(patterns.iter());
    builder.add_pattern("brain tumor");
    let ac = builder.build();
    let haystack = SENTENCE.repeat(20);
    g.bench_function("find_all_20_sentences", |b| {
        b.iter(|| ac.find_all(black_box(&haystack)))
    });
    g.bench_function("find_words_20_sentences", |b| {
        b.iter(|| ac.find_words(black_box(&haystack)))
    });
    g.finish();
}

fn bench_nlp(c: &mut Criterion) {
    let mut g = c.benchmark_group("nlp");
    let tagger = RuleTagger::default();
    let tokens = tokenize(SENTENCE);
    let words: Vec<&str> = tokens.iter().map(|t| t.text.as_str()).collect();
    g.bench_function("rule_tag_sentence", |b| {
        b.iter(|| tagger.tag(black_box(&words)))
    });
    let tags = tagger.tag(&words);
    g.bench_function("dependency_parse", |b| {
        b.iter(|| parse_dependencies(black_box(&words), black_box(&tags)))
    });
    let tree = parse_dependencies(&words, &tags);
    g.bench_function("noun_phrases", |b| {
        b.iter(|| noun_phrases(black_box(&words), black_box(&tags), black_box(&tree)))
    });
    // The whole front end as extraction runs it — tokenize into borrowed
    // words, tag, parse, noun phrases — over the test-split sentences of
    // the Disease A–Z corpus at scale 0.1, one sentence per iteration.
    let dataset = generate(&DatasetSpec::disease_az(7, 0.1));
    let sentences: Vec<String> = dataset
        .documents(Split::Test)
        .iter()
        .flat_map(|doc| split_sentences(&doc.text))
        .map(|sentence| sentence.text)
        .collect();
    let id = BenchmarkId::new("front_end", sentences.len());
    g.bench_with_input(id, &sentences, |b, sentences| {
        let mut next = sentences.iter().cycle();
        b.iter(|| {
            let text = next.next().expect("the test split has sentences");
            let words: Vec<&str> = token_spans(black_box(text)).map(|r| &text[r]).collect();
            chunk_sentence(&words, &tagger)
        })
    });
    g.finish();
}

fn bench_eval(c: &mut Criterion) {
    use thor_eval::{evaluate, schema_scores, Annotation};

    let mut g = c.benchmark_group("eval");
    let gold: Vec<Annotation> = (0..300)
        .map(|i| Annotation::new(format!("d{}", i % 20), "concept", &format!("phrase {i}")))
        .collect();
    let preds: Vec<Annotation> = (0..300)
        .map(|i| {
            // Two thirds exact, one third shifted.
            let p = if i % 3 == 0 {
                format!("phrase {}", i + 1)
            } else {
                format!("phrase {i}")
            };
            Annotation::new(format!("d{}", i % 20), "concept", &p)
        })
        .collect();
    g.bench_function("evaluate_300", |b| {
        b.iter(|| evaluate(black_box(&preds), black_box(&gold)))
    });
    g.bench_function("schema_scores_300", |b| {
        b.iter(|| schema_scores(black_box(&preds), black_box(&gold)))
    });
    g.finish();
}

fn bench_integration(c: &mut Criterion) {
    let mut g = c.benchmark_group("integration");
    let make_source = |concept: &str, offset: usize| {
        let schema = Schema::new(vec!["Subject".to_string(), concept.to_string()], "Subject");
        let mut t = Table::new(schema);
        for i in 0..200 {
            t.fill_slot(
                &format!("subject{}", (i + offset) % 300),
                concept,
                &format!("value{i}"),
            );
        }
        t
    };
    let sources: Vec<Table> = (0..8)
        .map(|i| make_source(&format!("Concept{i}"), i * 37))
        .collect();
    g.bench_function("full_disjunction_8x200", |b| {
        b.iter_batched(
            || sources.iter().collect::<Vec<&Table>>(),
            |refs| full_disjunction(&refs),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// `SEGMENT(D, R.C*)` over the Disease A–Z test documents at scale 0.1
/// (31 table rows) and 1.0 (314 rows), one document per iteration.
/// Subjects are looked up in the engine's frozen index, so the cost per
/// document should not grow with the number of rows.
fn bench_segment(c: &mut Criterion) {
    let mut g = c.benchmark_group("segment");
    for scale in [0.1, 1.0] {
        let dataset = generate(&DatasetSpec::disease_az(7, scale));
        let engine = Thor::new(dataset.store.clone(), ThorConfig::with_tau(0.7))
            .prepare(&dataset.enrichment_table());
        let docs = dataset.documents(Split::Test);
        let id = BenchmarkId::new("doc_rows", engine.subjects().names().len());
        g.bench_with_input(id, &docs, |b, docs| {
            let mut next = docs.iter().cycle();
            b.iter(|| {
                let doc = next.next().expect("the test split has documents");
                segment(
                    black_box(doc),
                    engine.subjects(),
                    engine.matcher(),
                    SegmentationMode::MentionCarryForward,
                )
            })
        });
    }
    g.finish();
}

/// `extract` over every Disease A–Z document at scale 0.1 (the
/// `batch-narrow` corpus: 186 documents, τ 0.5, one thread). `cold`
/// gives each iteration a fresh phrase memo and subphrase cache — a
/// `with_metrics` derivation, built outside the timing — so every
/// distinct noun phrase is matched and refined once per iteration;
/// `warm` reuses one engine, so after the first iteration every phrase
/// is a memo hit.
fn bench_extract(c: &mut Criterion) {
    let mut g = c.benchmark_group("extract");
    let dataset = generate(&DatasetSpec::disease_az(7, 0.1));
    let engine = Thor::new(dataset.store.clone(), ThorConfig::with_tau(0.5))
        .prepare(&dataset.enrichment_table());
    let docs: Vec<_> = [Split::Train, Split::Validation, Split::Test]
        .into_iter()
        .flat_map(|split| dataset.documents(split))
        .collect();
    g.bench_function(BenchmarkId::new("cold", docs.len()), |b| {
        b.iter_batched(
            || engine.with_metrics(PipelineMetrics::new()),
            |cold| cold.extract(black_box(&docs)),
            BatchSize::LargeInput,
        )
    });
    g.bench_function(BenchmarkId::new("warm", docs.len()), |b| {
        b.iter(|| engine.extract(black_box(&docs)))
    });
    g.finish();
}

/// The table work one served document pays, on the Disease A–Z table
/// at scale 1.0 (314 rows, τ 0.7) and its test documents:
/// `clone_fill_drop` clones the engine's table, slot-fills one
/// document's entities and drops the copy; `to_csv` renders the whole
/// table; `enrich_resilient_one_doc` is a lenient one-document
/// `enrich_resilient` (what `/extract` runs) with a warm phrase memo.
fn bench_table(c: &mut Criterion) {
    let mut g = c.benchmark_group("table");
    let dataset = generate(&DatasetSpec::disease_az(7, 1.0));
    let engine = Thor::new(dataset.store.clone(), ThorConfig::with_tau(0.7))
        .prepare(&dataset.enrichment_table());
    let docs = dataset.documents(Split::Test);
    let per_doc: Vec<_> = docs
        .iter()
        .map(|doc| engine.extract(std::slice::from_ref(doc)).0)
        .collect();
    let id = BenchmarkId::new("clone_fill_drop", engine.table().len());
    g.bench_with_input(id, &per_doc, |b, per_doc| {
        let mut next = per_doc.iter().cycle();
        b.iter(|| {
            let entities = next.next().expect("the test split has documents");
            let mut table = engine.table().clone();
            let stats = slot_fill(&mut table, black_box(entities));
            drop(table);
            stats
        })
    });
    let id = BenchmarkId::new("to_csv", engine.table().len());
    g.bench_function(id, |b| b.iter(|| to_csv(black_box(engine.table()))));
    let lenient = ResilientOptions {
        mode: RunMode::Lenient,
        ..ResilientOptions::default()
    };
    let id = BenchmarkId::new("enrich_resilient_one_doc", engine.table().len());
    g.bench_with_input(id, &docs, |b, docs| {
        let mut next = docs.iter().cycle();
        b.iter(|| {
            let doc = next.next().expect("the test split has documents");
            engine
                .enrich_resilient(std::slice::from_ref(black_box(doc)), &lenient)
                .expect("lenient runs do not fail")
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_text,
    bench_automata,
    bench_nlp,
    bench_eval,
    bench_integration,
    bench_segment,
    bench_extract,
    bench_table
);
criterion_main!(benches);

//! Chaos suite: deterministic fault injection through the resilient run
//! layer.
//!
//! Every test arms (or explicitly disarms) the global failpoint registry
//! through `scoped_failpoints`, which serializes the tests that touch it
//! — so the suite is safe under cargo's default parallel test runner.
//!
//! The headline property: a run interrupted at an arbitrary document and
//! resumed from its checkpoint produces **byte-identical** enriched CSV
//! and entities TSV to an uninterrupted run, across cache and thread
//! configurations.

use std::path::{Path, PathBuf};

use thor_core::{
    entities_tsv, Document, PipelineMetrics, ResilientOptions, RunMode, Thor, ThorConfig,
};
use thor_data::{to_csv, Schema, Table};
use thor_embed::SemanticSpaceBuilder;
use thor_fault::{scoped_failpoints, DocumentPolicy, ErrorKind};
use thor_obs::{MetricValue, MetricsSnapshot};

fn setup(cache_capacity: usize, threads: usize) -> (Thor, Table, Vec<Document>) {
    let store = SemanticSpaceBuilder::new(32, 21)
        .spread(0.4)
        .topic("disease")
        .topic("anatomy")
        .correlated_topic("complication", "anatomy", 0.25)
        .words("disease", ["tuberculosis", "acne", "neuroma", "acoustic"])
        .words(
            "anatomy",
            [
                "nervous", "system", "brain", "nerve", "lungs", "skin", "ear",
            ],
        )
        .words(
            "complication",
            [
                "cancer",
                "tumor",
                "unsteadiness",
                "empyema",
                "deafness",
                "non-cancerous",
            ],
        )
        .generic_words(["slow-growing", "grows", "damage", "damages", "severe"])
        .build()
        .into_store();
    let mut table = Table::new(Schema::new(
        ["Disease", "Anatomy", "Complication"],
        "Disease",
    ));
    table.fill_slot("Acoustic Neuroma", "Anatomy", "nervous system");
    table.fill_slot("Acne", "Anatomy", "skin");
    table.fill_slot("Acne", "Complication", "skin cancer");
    table.row_for_subject("Tuberculosis");
    let docs = vec![
        Document::new(
            "d0",
            "Acoustic Neuroma is a slow-growing non-cancerous brain tumor.",
        ),
        Document::new(
            "d1",
            "Acoustic Neuroma may cause unsteadiness and deafness.",
        ),
        Document::new(
            "d2",
            "Tuberculosis generally damages the lungs and may cause empyema.",
        ),
        Document::new(
            "d3",
            "Acne grows on the skin and may cause severe skin cancer.",
        ),
        Document::new(
            "d4",
            "Tuberculosis may damage the brain and the nervous system.",
        ),
        Document::new("d5", "Acne can cause damage to the ear skin."),
    ];
    let mut config = ThorConfig::with_tau(0.6);
    config.cache_capacity = cache_capacity;
    config.threads = threads;
    (Thor::new(store, config), table, docs)
}

fn opts(mode: RunMode, dir: Option<&Path>, resume: bool) -> ResilientOptions {
    ResilientOptions {
        mode,
        checkpoint_dir: dir.map(PathBuf::from),
        checkpoint_interval: 1,
        resume,
        policy: DocumentPolicy::default(),
        ..ResilientOptions::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("thor-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_per_doc_site_quarantines_exactly_one_doc() {
    for site in ["validate", "segment", "extract"] {
        let _guard = scoped_failpoints(&format!("{site}:err@2"));
        let (thor, table, docs) = setup(4096, 1);
        let outcome = thor
            .prepare(&table)
            .enrich_resilient(&docs, &opts(RunMode::Lenient, None, false))
            .unwrap();
        assert_eq!(outcome.quarantine.len(), 1, "site {site}");
        let entry = &outcome.quarantine.entries()[0];
        assert_eq!(entry.stage, site);
        assert_eq!(entry.kind, ErrorKind::Injected);
        // Single-threaded, so the 2nd evaluation is deterministically d1.
        assert_eq!(entry.doc_id, "d1", "site {site}");
        assert_eq!(outcome.processed_docs, docs.len());
    }
}

#[test]
fn quarantine_count_matches_multiple_injected_faults() {
    // validate fires on the 1st doc; extract on its 3rd evaluation —
    // d0 never reaches extract, so that is d3.
    let _guard = scoped_failpoints("validate:err@1,extract:err@3");
    let (thor, table, docs) = setup(4096, 1);
    let outcome = thor
        .prepare(&table)
        .enrich_resilient(&docs, &opts(RunMode::Lenient, None, false))
        .unwrap();
    assert_eq!(outcome.quarantine.len(), 2);
    assert_eq!(outcome.quarantine.stage_count("validate"), 1);
    assert_eq!(outcome.quarantine.stage_count("extract"), 1);
    let ids: Vec<&str> = outcome
        .quarantine
        .entries()
        .iter()
        .map(|e| e.doc_id.as_str())
        .collect();
    assert_eq!(ids, ["d0", "d3"]);
    // Every other doc still contributed.
    let clean_docs: Vec<Document> = docs
        .iter()
        .filter(|d| !ids.contains(&d.id.as_str()))
        .cloned()
        .collect();
    let clean = thor.prepare(&table).enrich(&clean_docs);
    assert_eq!(outcome.result.entities, clean.entities);
}

#[test]
fn injected_panics_cost_one_document_not_the_run() {
    for site in ["segment", "extract"] {
        let _guard = scoped_failpoints(&format!("{site}:panic@1"));
        let (thor, table, docs) = setup(4096, 1);
        let outcome = thor
            .prepare(&table)
            .enrich_resilient(&docs, &opts(RunMode::Lenient, None, false))
            .unwrap();
        assert_eq!(outcome.quarantine.len(), 1, "site {site}");
        let entry = &outcome.quarantine.entries()[0];
        assert_eq!(entry.kind, ErrorKind::Panic);
        assert!(entry.error.contains("injected panic"), "{}", entry.error);
        let clean = thor.prepare(&table).enrich(&docs[1..]);
        assert_eq!(outcome.result.entities, clean.entities);
    }
}

#[test]
fn strict_mode_aborts_on_injected_fault() {
    for spec in ["validate:err@2", "segment:panic@1", "extract:err@4"] {
        let _guard = scoped_failpoints(spec);
        let (thor, table, docs) = setup(4096, 1);
        let err = thor
            .prepare(&table)
            .enrich_resilient(&docs, &opts(RunMode::Strict, None, false))
            .unwrap_err();
        assert!(
            err.kind() == ErrorKind::Injected || err.kind() == ErrorKind::Panic,
            "{spec}: {err}"
        );
    }
}

#[test]
fn run_level_slot_fill_fault_fails_both_modes() {
    for mode in [RunMode::Strict, RunMode::Lenient] {
        let _guard = scoped_failpoints("slot_fill:err@1");
        let (thor, table, docs) = setup(4096, 1);
        let err = thor
            .prepare(&table)
            .enrich_resilient(&docs, &opts(mode, None, false))
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Injected, "{mode:?}");
    }
}

#[test]
fn checkpoint_save_fault_is_skipped_in_lenient_mode() {
    let dir = temp_dir("skip");
    let _guard = scoped_failpoints("checkpoint_save:err@1");
    let (thor, table, docs) = setup(4096, 1);
    let outcome = thor
        .prepare(&table)
        .enrich_resilient(&docs, &opts(RunMode::Lenient, Some(&dir), false))
        .unwrap();
    assert_eq!(outcome.checkpoints_skipped, 1);
    assert!(outcome.quarantine.is_empty());
    // Later saves succeeded (the failpoint fires once): full state on disk.
    let cp = thor_fault::Checkpoint::load(&dir).unwrap().unwrap();
    assert_eq!(cp.processed.len(), docs.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_save_fault_is_fatal_in_strict_mode() {
    let dir = temp_dir("strictsave");
    let _guard = scoped_failpoints("checkpoint_save:err@1");
    let (thor, table, docs) = setup(4096, 1);
    let err = thor
        .prepare(&table)
        .enrich_resilient(&docs, &opts(RunMode::Strict, Some(&dir), false))
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Injected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_run_resumes_byte_identical() {
    for (cache, threads) in [(4096, 1), (0, 1), (4096, 4), (0, 4)] {
        let tag = format!("resume-{cache}-{threads}");

        // Reference: uninterrupted run.
        let clean = {
            let _guard = scoped_failpoints("");
            let (thor, table, docs) = setup(cache, threads);
            thor.prepare(&table)
                .enrich_resilient(&docs, &opts(RunMode::Strict, None, false))
                .unwrap()
        };

        // Interrupted run: an injected fault kills it mid-corpus, after
        // some documents have been checkpointed.
        let dir = temp_dir(&tag);
        {
            let _guard = scoped_failpoints("extract:err@3");
            let (thor, table, docs) = setup(cache, threads);
            thor.prepare(&table)
                .enrich_resilient(&docs, &opts(RunMode::Strict, Some(&dir), false))
                .expect_err("injected fault must abort the strict run");
        }
        let cp = thor_fault::Checkpoint::load(&dir).unwrap().unwrap();
        assert!(
            !cp.processed.is_empty() && cp.processed.len() < 6,
            "{tag}: interruption should leave a partial checkpoint, got {:?}",
            cp.processed
        );

        // Resume without faults: must reproduce the clean run exactly.
        let resumed = {
            let _guard = scoped_failpoints("");
            let (thor, table, docs) = setup(cache, threads);
            thor.prepare(&table)
                .enrich_resilient(&docs, &opts(RunMode::Strict, Some(&dir), true))
                .unwrap()
        };
        assert_eq!(resumed.resumed_docs, cp.processed.len(), "{tag}");
        assert_eq!(
            to_csv(&resumed.result.table),
            to_csv(&clean.result.table),
            "{tag}: enriched CSV must be byte-identical"
        );
        assert_eq!(
            entities_tsv(&resumed.result.entities),
            entities_tsv(&clean.result.entities),
            "{tag}: entities TSV must be byte-identical"
        );
        assert_eq!(resumed.result.entities, clean.result.entities, "{tag}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn resume_after_completion_is_a_fast_noop_with_identical_output() {
    let dir = temp_dir("noop");
    let _guard = scoped_failpoints("");
    let (thor, table, docs) = setup(4096, 1);
    let first = thor
        .prepare(&table)
        .enrich_resilient(&docs, &opts(RunMode::Strict, Some(&dir), false))
        .unwrap();
    let second = thor
        .prepare(&table)
        .enrich_resilient(&docs, &opts(RunMode::Strict, Some(&dir), true))
        .unwrap();
    assert_eq!(second.resumed_docs, docs.len());
    assert_eq!(second.processed_docs, 0);
    assert_eq!(to_csv(&second.result.table), to_csv(&first.result.table));
    assert_eq!(second.result.entities, first.result.entities);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_checkpoint_from_different_run() {
    let dir = temp_dir("fingerprint");
    let _guard = scoped_failpoints("");
    let (thor, table, docs) = setup(4096, 1);
    thor.prepare(&table)
        .enrich_resilient(&docs, &opts(RunMode::Strict, Some(&dir), false))
        .unwrap();
    // Same checkpoint, different τ — a different run; refuse to mix.
    let other = Thor::new(thor.store().clone(), ThorConfig::with_tau(0.8));
    let err = other
        .prepare(&table)
        .enrich_resilient(&docs, &opts(RunMode::Strict, Some(&dir), true))
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Checkpoint);
    assert!(err.to_string().contains("refusing to resume"), "{err}");
    // Same τ over a table differing in one cell value — also a different run.
    let mut edited = table.clone();
    assert!(edited.fill_slot("Tuberculosis", "Anatomy", "pleura"));
    let err = thor
        .prepare(&edited)
        .enrich_resilient(&docs, &opts(RunMode::Strict, Some(&dir), true))
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Checkpoint);
    assert!(err.to_string().contains("refusing to resume"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spans recorded by the timer `name`.
fn spans(snap: &MetricsSnapshot, name: &str) -> u64 {
    match snap.get(name) {
        Some(MetricValue::Timer { spans, .. }) => *spans,
        other => panic!("`{name}` is not a timer: {other:?}"),
    }
}

#[test]
fn resumed_metrics_span_the_whole_logical_run() {
    for threads in [1, 4] {
        let full = {
            let _guard = scoped_failpoints("");
            let metrics = PipelineMetrics::new();
            let (thor, table, docs) = setup(4096, threads);
            thor.prepare(&table)
                .with_metrics(metrics.clone())
                .enrich_resilient(&docs, &opts(RunMode::Strict, None, false))
                .unwrap();
            metrics.snapshot()
        };
        let dir = temp_dir(&format!("metrics-{threads}"));
        {
            let _guard = scoped_failpoints("extract:err@3");
            let metrics = PipelineMetrics::new();
            let (thor, table, docs) = setup(4096, threads);
            thor.prepare(&table)
                .with_metrics(metrics)
                .enrich_resilient(&docs, &opts(RunMode::Strict, Some(&dir), false))
                .expect_err("injected fault");
        }
        let _guard = scoped_failpoints("");
        let metrics = PipelineMetrics::new();
        let (thor, table, docs) = setup(4096, threads);
        let outcome = thor
            .prepare(&table)
            .with_metrics(metrics.clone())
            .enrich_resilient(&docs, &opts(RunMode::Strict, Some(&dir), true))
            .unwrap();
        assert!(outcome.resumed_docs > 0, "threads={threads}");
        // Counters absorbed from the checkpoint + this invocation's work
        // cover every document exactly once: the document that failed
        // was not counted before the checkpoint was saved. The
        // matcher's `subphrases` and `candidates` are tallied per
        // document like the core's own counters. Its `cache.*` and
        // `index.pruned.*` counters are left out on purpose: they count
        // work actually done, and the resumed engine starts with a cold
        // cache, so they may legitimately differ.
        let resumed = metrics.snapshot();
        assert_eq!(resumed.count("docs") as usize, docs.len());
        for name in [
            "docs",
            "quarantine.docs",
            "segments",
            "sentences",
            "noun_phrases",
            "subphrases",
            "candidates",
            "entities",
            "refine.scored",
            "refine.pruned",
        ] {
            assert_eq!(
                resumed.count(name),
                full.count(name),
                "`{name}`, threads={threads}"
            );
        }
        // The memo split differs (the resumed engine starts cold), but
        // every noun phrase is looked up exactly once.
        let lookups =
            |s: &MetricsSnapshot| s.count("phrase_memo.hit") + s.count("phrase_memo.miss");
        assert_eq!(lookups(&resumed), lookups(&full), "threads={threads}");
        // `stage.match` opens once per phrase matched afresh, so like
        // the memo misses it counts work done, which a cold resume (or
        // two workers missing one phrase at once) may repeat. It is
        // committed with the document, like the misses it pairs with.
        for snap in [&full, &resumed] {
            assert_eq!(
                spans(snap, "stage.match"),
                snap.count("phrase_memo.miss"),
                "threads={threads}"
            );
        }
        for name in ["stage.segment", "stage.chunk"] {
            assert_eq!(
                spans(&resumed, name),
                spans(&full, name),
                "`{name}` spans, threads={threads}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

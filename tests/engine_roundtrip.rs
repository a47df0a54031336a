//! Engine artifact round-trip contract: `thor build` persists a
//! [`PreparedEngine`] that, once loaded in a different process (or here,
//! a different instance), serves **byte-identical** enrichment output —
//! across worker-thread counts and with the phrase cache on or off — and
//! every tampered artifact is rejected with a named error, never a panic
//! or a silently different answer.

use std::time::Duration;

use thor_core::{
    Document, MapMode, PreparedEngine, Thor, ThorConfig, ENGINE_FORMAT_VERSION, ENGINE_MAGIC,
};
use thor_data::{outer_join, Schema, Table};
use thor_embed::{SemanticSpaceBuilder, VectorStore};
use thor_fault::ErrorKind;
use thor_obs::PipelineMetrics;

fn fixture_store() -> VectorStore {
    SemanticSpaceBuilder::new(32, 7)
        .spread(0.4)
        .topic("anatomy")
        .correlated_topic("complication", "anatomy", 0.25)
        .words(
            "anatomy",
            [
                "nervous", "system", "brain", "nerve", "skin", "lungs", "ear",
            ],
        )
        .words(
            "complication",
            [
                "cancer",
                "tumor",
                "unsteadiness",
                "deafness",
                "empyema",
                "non-cancerous",
            ],
        )
        .generic_words(["slow-growing", "grows", "damages", "may", "cause"])
        .build()
        .into_store()
}

fn fixture_table() -> Table {
    let mut d1 = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
    d1.fill_slot("Acoustic Neuroma", "Anatomy", "nervous system");
    d1.fill_slot("Acne", "Anatomy", "skin");
    let mut d2 = Table::new(Schema::new(["Disease", "Complication"], "Disease"));
    d2.fill_slot("Acne", "Complication", "skin cancer");
    d2.row_for_subject("Tuberculosis");
    outer_join(&d1, &d2)
}

fn fixture_docs() -> Vec<Document> {
    vec![
        Document::new(
            "d0",
            "Acoustic Neuroma is a slow-growing non-cancerous brain tumor. \
             It may cause unsteadiness and deafness.",
        ),
        Document::new(
            "d1",
            "Tuberculosis generally damages the lungs and may cause empyema.",
        ),
        Document::new("d2", "Acne grows on the skin and may cause skin cancer."),
        Document::new("d3", "Tuberculosis may damage the nerve and the ear."),
    ]
}

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "thor-roundtrip-{tag}-{}-{:?}.thorengine",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Byte-identical serve output after a save → load cycle, across worker
/// thread counts {1, 4} and with the phrase cache on (4096) and off (0).
/// The cache and thread count are explicitly *not* part of the frozen
/// behavior — every combination must produce the same bytes.
#[test]
fn loaded_engine_serves_byte_identical_output() {
    let docs = fixture_docs();
    for cache in [0usize, 4096] {
        let mut config = ThorConfig::with_tau(0.6);
        config.cache_capacity = cache;
        let built = Thor::new(fixture_store(), config).prepare(&fixture_table());

        let path = scratch(&format!("serve-{cache}"));
        built.save(&path).expect("save engine");
        let loaded = PreparedEngine::load(&path).expect("load engine");
        std::fs::remove_file(&path).ok();

        assert_eq!(built.fingerprint(), loaded.fingerprint());
        let reference = built.enrich(&docs);
        let reference_csv = thor_data::csv::to_csv(&reference.table);
        for threads in [1usize, 4] {
            for (name, engine) in [("built", &built), ("loaded", &loaded)] {
                let out = engine.with_threads(threads).enrich(&docs);
                assert_eq!(
                    out.entities, reference.entities,
                    "{name} engine, cache={cache}, threads={threads}: entities diverged"
                );
                assert_eq!(
                    thor_data::csv::to_csv(&out.table),
                    reference_csv,
                    "{name} engine, cache={cache}, threads={threads}: enriched CSV diverged"
                );
                assert_eq!(out.slot_stats, reference.slot_stats);
            }
        }
    }
}

/// The loaded engine reports the same count-style pipeline metrics as
/// the in-memory build (timings are wall-clock and excluded).
#[test]
fn loaded_engine_count_metrics_match() {
    let docs = fixture_docs();
    let built = Thor::new(fixture_store(), ThorConfig::with_tau(0.6)).prepare(&fixture_table());
    let path = scratch("metrics");
    built.save(&path).expect("save engine");
    let loaded = PreparedEngine::load(&path).expect("load engine");
    std::fs::remove_file(&path).ok();

    let counts = |engine: &PreparedEngine| {
        let metrics = PipelineMetrics::new();
        engine.with_metrics(metrics.clone()).enrich(&docs);
        (
            [
                metrics.docs.get(),
                metrics.sentences.get(),
                metrics.noun_phrases.get(),
                metrics.subphrases.get(),
                metrics.candidates.get(),
                metrics.entities.get(),
                metrics.slots_inserted.get(),
                metrics.expansion_words.get(),
            ],
            [
                metrics.vocab_words.get(),
                metrics.cluster_representatives.get(),
            ],
            [metrics.prepare.spans(), metrics.inference.spans()],
        )
    };
    let (built_counts, built_gauges, built_spans) = counts(&built);
    let (loaded_counts, loaded_gauges, loaded_spans) = counts(&loaded);
    assert_eq!(built_counts, loaded_counts, "counters diverged");
    assert_eq!(built_gauges, loaded_gauges, "gauges diverged");
    assert_eq!(built_spans, loaded_spans, "span counts diverged");
    assert_eq!(built_spans, [1, 1], "one prepare span, one inference span");
}

/// Saving the same engine twice produces identical files — the artifact
/// encoder is fully deterministic (sorted store words, no timestamps).
#[test]
fn save_is_deterministic() {
    let engine = Thor::new(fixture_store(), ThorConfig::with_tau(0.7)).prepare(&fixture_table());
    let (a, b) = (scratch("det-a"), scratch("det-b"));
    engine.save(&a).unwrap();
    engine.save(&b).unwrap();
    let (ba, bb) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
    assert_eq!(ba, bb);
}

/// A derived engine (different τ or thread count) round-trips through
/// the artifact too — `save` is not restricted to freshly built engines.
#[test]
fn derived_engine_round_trips() {
    let docs = fixture_docs();
    let base = Thor::new(fixture_store(), ThorConfig::with_tau(0.5)).prepare(&fixture_table());
    let derived = base.with_tau(0.8).with_threads(4);
    let path = scratch("derived");
    derived.save(&path).unwrap();
    let loaded = PreparedEngine::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.tau(), 0.8);
    assert_eq!(loaded.config().threads, 4);
    assert_eq!(
        loaded.enrich(&docs).entities,
        derived.enrich(&docs).entities
    );
}

/// A version bump is rejected by name before any payload parsing runs.
#[test]
fn future_format_version_is_rejected() {
    let engine = Thor::new(fixture_store(), ThorConfig::with_tau(0.6)).prepare(&fixture_table());
    let path = scratch("version");
    engine.save(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    assert_eq!(&bytes[..8], ENGINE_MAGIC);
    bytes[8..12].copy_from_slice(&(ENGINE_FORMAT_VERSION + 1).to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let err = PreparedEngine::load(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert_eq!(err.kind(), ErrorKind::Parse);
    let msg = err.to_string();
    assert!(
        msg.contains("unsupported") && msg.contains(&format!("{}", ENGINE_FORMAT_VERSION + 1)),
        "{msg}"
    );
}

/// Wrong magic, payload corruption, and truncation are each rejected
/// with their own named error (deterministic spot checks; the
/// exhaustive any-byte property lives in `corrupt_inputs.rs`).
#[test]
fn tampered_artifacts_are_rejected_by_name() {
    let engine = Thor::new(fixture_store(), ThorConfig::with_tau(0.6)).prepare(&fixture_table());
    let path = scratch("tamper");
    engine.save(&path).unwrap();
    let good = std::fs::read(&path).unwrap();

    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xff;
    std::fs::write(&path, &bad_magic).unwrap();
    let err = PreparedEngine::load(&path).unwrap_err();
    assert!(err.to_string().contains("bad magic"), "{err}");

    let mut flipped = good.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    std::fs::write(&path, &flipped).unwrap();
    let err = PreparedEngine::load(&path).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Validation);
    assert!(err.to_string().contains("checksum mismatch"), "{err}");

    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    let err = PreparedEngine::load(&path).unwrap_err();
    assert!(err.to_string().contains("truncated"), "{err}");

    std::fs::remove_file(&path).ok();
}

/// The full equivalence matrix of the zero-copy tentpole: backing
/// (owned vs mapped) × worker threads {1, 4} × phrase cache {0, 4096}
/// all serve byte-identical enriched CSVs and identical entity lists.
/// The mapped engine borrows its hot arrays straight from the file;
/// nothing about extraction may depend on that.
#[test]
fn mapped_and_owned_engines_are_byte_identical() {
    let docs = fixture_docs();
    for cache in [0usize, 4096] {
        let mut config = ThorConfig::with_tau(0.6);
        config.cache_capacity = cache;
        let built = Thor::new(fixture_store(), config).prepare(&fixture_table());
        let reference = built.enrich(&docs);
        let reference_csv = thor_data::csv::to_csv(&reference.table);

        let path = scratch(&format!("matrix-{cache}"));
        built.save(&path).expect("save engine");
        let owned = PreparedEngine::load_with(&path, MapMode::Owned).expect("owned load");
        let mapped = PreparedEngine::load_with(&path, MapMode::Mapped).expect("mapped load");
        for (name, engine) in [("owned", &owned), ("mapped", &mapped)] {
            assert_eq!(engine.fingerprint(), built.fingerprint(), "{name}");
            for threads in [1usize, 4] {
                let out = engine.with_threads(threads).enrich(&docs);
                assert_eq!(
                    out.entities, reference.entities,
                    "{name}, threads={threads}, cache={cache}: entities diverged"
                );
                assert_eq!(
                    thor_data::csv::to_csv(&out.table),
                    reference_csv,
                    "{name}, threads={threads}, cache={cache}: enriched CSV diverged"
                );
                assert_eq!(out.slot_stats, reference.slot_stats);
            }
        }
        // The mapped engine keeps the file borrowed; drop both loads
        // before removing the scratch file.
        drop((owned, mapped));
        std::fs::remove_file(&path).ok();
    }
}

/// A cell value holding `\r` survives save → load in both map modes:
/// the artifact embeds the table's CSV and checks only its digest, so
/// that CSV must read back as the table it was rendered from.
#[test]
fn carriage_return_values_survive_save_and_load() {
    let table = thor_data::from_csv("Disease,Anatomy\nAcne,\"skin\rfold\"\n").expect("parse");
    assert_eq!(table.column_values("Anatomy"), ["skin\rfold"]);
    let built = Thor::new(fixture_store(), ThorConfig::with_tau(0.6)).prepare(&table);
    let path = scratch("carriage-return");
    built.save(&path).expect("save engine");
    for mode in [MapMode::Owned, MapMode::Mapped] {
        let loaded = PreparedEngine::load_with(&path, mode).expect("load engine");
        assert_eq!(
            thor_data::to_csv(loaded.table()),
            thor_data::to_csv(built.table()),
            "{mode:?}"
        );
        assert_eq!(loaded.fingerprint(), built.fingerprint(), "{mode:?}");
    }
    std::fs::remove_file(&path).ok();
}

/// One loaded engine shared across threads serves concurrently and
/// identically — the serve path is lock-free over immutable state.
#[test]
fn loaded_engine_is_shareable_across_threads() {
    let docs = fixture_docs();
    let built = Thor::new(fixture_store(), ThorConfig::with_tau(0.6)).prepare(&fixture_table());
    let path = scratch("share");
    built.save(&path).unwrap();
    let loaded = PreparedEngine::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let reference = built.enrich(&docs).entities;

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let engine = loaded.clone();
                let docs = &docs;
                scope.spawn(move || engine.enrich(docs).entities)
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), reference);
        }
    });
}

/// `prepare_time` of a loaded engine reflects the (fast) load, not the
/// original fine-tuning — serving from an artifact never pays the
/// Preparation cost again.
#[test]
fn loading_is_cheaper_than_building() {
    let t0 = std::time::Instant::now();
    let built = Thor::new(fixture_store(), ThorConfig::with_tau(0.6)).prepare(&fixture_table());
    let build_wall = t0.elapsed();
    let path = scratch("cheap");
    built.save(&path).unwrap();
    let loaded = PreparedEngine::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(loaded.prepare_time() > Duration::ZERO);
    // Not a timing assertion (CI noise) — just the bookkeeping contract:
    // the loaded engine's recorded prepare span is its own, not copied
    // from the builder.
    assert_ne!(loaded.prepare_time(), built.prepare_time());
    let _ = build_wall;
}

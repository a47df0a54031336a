//! Property tests for the sub-linear candidate-generation tentpole:
//! **the bound-pruned scan is bit-identical to the exhaustive
//! reference**. `match_phrase`, whose only candidate scan is the
//! pruned one, must reproduce `match_phrase_reference` exactly — same
//! candidates, same order, same score *bits* — across random semantic
//! spaces, the paper's τ sweep, worker threads {1, 4}, phrase cache
//! {0, 4096}, backing {owned, mapped}, and after delta chains; and an
//! artifact missing any `prune.*` section is refused by name.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use thor_repro::core::{
    Document, EngineDelta, MapMode, PreparedEngine, SeedDelta, Thor, ThorConfig,
};
use thor_repro::data::{Schema, Table};
use thor_repro::embed::{SemanticSpaceBuilder, VectorStore};
use thor_repro::fault::{atomic_write, SectionFile, SectionWriter};
use thor_repro::matcher::{CandidateEntity, MatcherConfig, SimilarityMatcher};

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("thor-prune-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn case_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Matcher-level properties: pruned == exhaustive, bit for bit.
// ---------------------------------------------------------------------

fn space(seed: u64) -> VectorStore {
    SemanticSpaceBuilder::new(24, seed)
        .spread(0.5)
        .topic("alpha")
        .topic("beta")
        .correlated_topic("gamma", "beta", 0.3)
        .words("alpha", ["ape", "ant", "asp", "auk"])
        .words("beta", ["bee", "bat", "boa", "bug"])
        .words("gamma", ["gnu", "gar", "goa"])
        .generic_words(["elk", "owl"])
        .build()
        .into_store()
}

fn concepts() -> Vec<(String, Vec<String>)> {
    vec![
        (
            "Alpha".to_string(),
            vec!["ape".to_string(), "ant".to_string()],
        ),
        (
            "Beta".to_string(),
            vec!["bee".to_string(), "bat".to_string()],
        ),
        ("Gamma".to_string(), vec!["gnu".to_string()]),
    ]
}

fn matcher(tau: f64, seed: u64, cache: usize) -> SimilarityMatcher {
    let config = MatcherConfig {
        tau,
        cache_capacity: cache,
        ..MatcherConfig::default()
    };
    SimilarityMatcher::fine_tune(&concepts(), space(seed), config)
}

/// Match every phrase over `threads` workers sharing the one matcher
/// (and therefore the one phrase cache), twice each so cache-hit
/// replays are covered too, and require all rounds to agree.
fn matched_concurrently(
    m: &SimilarityMatcher,
    phrases: &[String],
    threads: usize,
) -> Vec<Vec<CandidateEntity>> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    phrases
                        .iter()
                        .map(|p| m.match_phrase(p))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut rounds: Vec<Vec<Vec<CandidateEntity>>> = workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect();
        let first = rounds.remove(0);
        for later in &rounds {
            assert_eq!(&first, later, "concurrent rounds diverged");
        }
        first
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant: the pruned scan reproduces the
    /// brute-force reference *bit-identically* for random spaces, every
    /// τ of the paper's sweep, cache {0, 4096} and threads {1, 4} on
    /// one shared matcher.
    #[test]
    fn pruned_exact_equals_exhaustive_bit_identically(
        words in prop::collection::vec(
            prop::collection::vec("(ape|ant|asp|auk|bee|bat|boa|bug|gnu|gar|goa|elk|owl|zzz)", 1..5),
            1..6,
        ),
        seed in 0u64..25,
        tau10 in 5u32..=10,
        cache_pick in 0usize..2,
        threads_pick in 0usize..2,
    ) {
        let cache = [0usize, 4096][cache_pick];
        let threads = [1usize, 4][threads_pick];
        let exact = matcher(tau10 as f64 / 10.0, seed, cache);
        let phrases: Vec<String> = words.iter().map(|w| w.join(" ")).collect();

        let got = matched_concurrently(&exact, &phrases, threads);
        for (phrase, act) in phrases.iter().zip(&got) {
            let reference = exact.match_phrase_reference(phrase, |_| true);
            prop_assert_eq!(
                &reference, act,
                "pruned path diverged from reference on `{}`", phrase
            );
        }
    }
}

// ---------------------------------------------------------------------
// Engine-level properties: after delta chains and across map modes,
// a loaded engine's matcher still equals the reference.
// ---------------------------------------------------------------------

fn engine_store() -> VectorStore {
    SemanticSpaceBuilder::new(24, 5)
        .topic("anatomy")
        .words(
            "anatomy",
            ["lungs", "brain", "skin", "nerve", "spine", "ear"],
        )
        .topic("medicine")
        .words("medicine", ["aspirin", "insulin"])
        .generic_words(["damages", "grows", "treats", "causes"])
        .build()
        .into_store()
}

fn base_table() -> Table {
    let mut table = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
    table.fill_slot("Tuberculosis", "Anatomy", "lungs");
    table.row_for_subject("Acne");
    table
}

/// Every document word and adjacent word pair, plus an OOV word: the
/// phrases the engine-level properties match against the reference.
fn phrases_of(docs: &[Document]) -> Vec<String> {
    let mut words: Vec<String> = docs
        .iter()
        .flat_map(|d| d.text.split(|c: char| !c.is_alphanumeric()))
        .filter(|w| !w.is_empty())
        .map(str::to_lowercase)
        .collect();
    words.push("zzz".to_string());
    let pairs: Vec<String> = words.windows(2).map(|w| w.join(" ")).collect();
    words.extend(pairs);
    words
}

/// `engine`'s pruned `match_phrase` equals its brute-force
/// `match_phrase_reference` on every phrase of `docs`.
fn assert_matches_reference(engine: &PreparedEngine, docs: &[Document], context: &str) {
    let matcher = engine.matcher();
    for phrase in phrases_of(docs) {
        assert_eq!(
            matcher.match_phrase(&phrase),
            matcher.match_phrase_reference(&phrase, |_| true),
            "{context}: `{phrase}`"
        );
    }
}

fn docs() -> Vec<Document> {
    vec![
        Document::new("d0", "Tuberculosis damages the lungs and the brain."),
        Document::new("d1", "Acne grows on the skin and damages the ear."),
        Document::new("d2", "Aspirin treats the nerve and the spine."),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// After a random delta chain, the in-memory and the chain-loaded
    /// engine match the brute-force reference on every document phrase
    /// and enrich identically, at every {cache} × {mmap} point.
    #[test]
    fn pruned_scans_match_the_reference_after_delta_chains(
        seeds in prop::collection::vec((0usize..3, 0usize..6), 1..4),
        cache_pick in 0usize..2,
        mapped_pick in 0usize..2,
    ) {
        const SUBJECTS: [&str; 3] = ["Tuberculosis", "Acne", "Stroke"];
        const WORDS: [&str; 6] = ["lungs", "brain", "skin", "nerve", "spine", "ear"];
        let mode = [MapMode::Owned, MapMode::Mapped][mapped_pick];

        let mut config = ThorConfig::with_tau(0.6);
        config.cache_capacity = [0usize, 4096][cache_pick];
        let thor = Thor::new(engine_store(), config);
        let mut engine = thor.prepare(&base_table());

        let dir = scratch_dir();
        let case = case_id();
        let mut paths = vec![dir.join(format!("base-{case}.eng"))];
        engine.save(&paths[0]).unwrap();
        for (i, &(sub, word)) in seeds.iter().enumerate() {
            let mut rows = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
            rows.fill_slot(SUBJECTS[sub], "Anatomy", WORDS[word]);
            engine = engine.apply_delta(&EngineDelta::Seeds(SeedDelta::new(rows))).unwrap();
            let next = dir.join(format!("d{i}-{case}.eng"));
            engine.save_delta(paths.last().unwrap(), &next, "prune prop").unwrap();
            paths.push(next);
        }

        let loaded = PreparedEngine::load_with(paths.last().unwrap(), mode).unwrap();
        prop_assert_eq!(loaded.fingerprint(), engine.fingerprint());
        let docs = docs();
        assert_matches_reference(&engine, &docs, "evolved");
        assert_matches_reference(&loaded, &docs, &format!("{mode:?} chain load"));
        let (want, got) = (engine.enrich(&docs), loaded.enrich(&docs));
        prop_assert_eq!(&want.entities, &got.entities);
        prop_assert_eq!(
            thor_repro::data::csv::to_csv(&want.table),
            thor_repro::data::csv::to_csv(&got.table)
        );

        drop(loaded);
        for p in &paths {
            std::fs::remove_file(p).ok();
        }
    }
}

/// The six `prune.*` sections are mandatory: an artifact with any one
/// of them stripped is refused under both map modes, by a named error
/// that says which section is missing.
#[test]
fn artifacts_missing_a_prune_section_are_refused_by_name() {
    let dir = scratch_dir();
    let thor = Thor::new(engine_store(), ThorConfig::with_tau(0.6));
    let full = dir.join("prune-full.eng");
    thor.prepare(&base_table()).save(&full).unwrap();

    let file = SectionFile::open(&full, MapMode::Owned).unwrap();
    let prune: Vec<String> = file
        .entries()
        .iter()
        .map(|e| e.name.clone())
        .filter(|name| name.starts_with("prune."))
        .collect();
    assert_eq!(prune.len(), 6, "expected six pruning sections: {prune:?}");
    for victim in &prune {
        let mut w = SectionWriter::new();
        for e in file.entries().iter().filter(|e| &e.name != victim) {
            w.add(&e.name, e.version, file.bytes(&e.name).unwrap());
        }
        let stripped = dir.join("prune-stripped.eng");
        atomic_write(&stripped, &w.finish()).unwrap();
        for mode in [MapMode::Owned, MapMode::Mapped] {
            let msg = PreparedEngine::load_with(&stripped, mode)
                .err()
                .unwrap_or_else(|| panic!("{mode:?}: loaded without `{victim}`"))
                .to_string();
            assert!(
                msg.contains(&format!("missing section `{victim}`")),
                "{mode:?}: `{msg}`"
            );
        }
        std::fs::remove_file(&stripped).ok();
    }
    drop(file);
    std::fs::remove_file(&full).ok();
}

// ---------------------------------------------------------------------
// Lane-kernel coverage: the exact scans read each cluster's rows four
// to an interleaved block, so clusters whose member counts leave 1, 2
// or 3 rows in a padded last block, and delta challenger passes whose
// blocks hold rows of two concepts, must still match the references.
// ---------------------------------------------------------------------

const ORGANS: [&str; 10] = [
    "lungs", "brain", "skin", "nerve", "spine", "ear", "liver", "heart", "bone", "eye",
];
const DRUGS: [&str; 8] = [
    "aspirin",
    "insulin",
    "statin",
    "heparin",
    "codeine",
    "morphine",
    "penicillin",
    "quinine",
];
const SIGNS: [&str; 8] = [
    "fever", "cough", "rash", "nausea", "fatigue", "itch", "cramp", "chill",
];

fn ragged_store(seed: u64) -> VectorStore {
    SemanticSpaceBuilder::new(24, seed)
        .spread(0.5)
        .topic("anatomy")
        .words("anatomy", ORGANS)
        .topic("medicine")
        .words("medicine", DRUGS)
        .correlated_topic("symptom", "anatomy", 0.3)
        .words("symptom", SIGNS)
        .generic_words(["damages", "grows", "treats", "causes"])
        .build()
        .into_store()
}

/// One concept per seed count 1, 2, 3, 5, 6 and 7: a concept's seed
/// prefix forms one cluster of exactly that many rows.
fn ragged_concepts() -> Vec<(String, Vec<String>)> {
    let take = |words: &[&str], n: usize| words.iter().take(n).map(|w| w.to_string()).collect();
    vec![
        ("Organ".to_string(), take(&ORGANS, 1)),
        ("Drug".to_string(), take(&DRUGS, 2)),
        ("Sign".to_string(), take(&SIGNS, 3)),
        ("Tissue".to_string(), take(&ORGANS[3..], 5)),
        ("Remedy".to_string(), take(&DRUGS[2..], 6)),
        ("Finding".to_string(), take(&SIGNS[1..], 7)),
    ]
}

#[test]
fn ragged_clusters_match_the_exhaustive_scan_bit_for_bit() {
    let mut vocab: Vec<&str> = ORGANS.iter().chain(&DRUGS).chain(&SIGNS).copied().collect();
    vocab.extend(["damages", "grows", "treats", "causes", "zzz"]);
    let mut phrases: Vec<String> = vocab.iter().map(|w| w.to_string()).collect();
    phrases.extend(vocab.windows(2).map(|w| w.join(" ")));
    for seed in 0..4u64 {
        for tau in [0.3, 0.5, 0.7, 0.9] {
            let config = MatcherConfig {
                tau,
                cache_capacity: 0,
                ..MatcherConfig::default()
            };
            let exact =
                SimilarityMatcher::fine_tune(&ragged_concepts(), ragged_store(seed), config);
            for phrase in &phrases {
                let reference = exact.match_phrase_reference(phrase, |_| true);
                assert_eq!(
                    exact.match_phrase(phrase),
                    reference,
                    "seed {seed} tau {tau}: `{phrase}`"
                );
            }
        }
    }
}

fn ragged_table() -> Table {
    let mut table = Table::new(Schema::new(["Disease", "Organ", "Drug", "Sign"], "Disease"));
    table.fill_slot("Tuberculosis", "Organ", "lungs");
    table.fill_slot("Tuberculosis", "Drug", "aspirin");
    table.fill_slot("Acne", "Sign", "rash");
    table
}

fn ragged_docs() -> Vec<Document> {
    vec![
        Document::new(
            "d0",
            "Tuberculosis damages the lungs and the liver with a cough.",
        ),
        Document::new(
            "d1",
            "Acne grows on the skin, treats nothing and causes an itch.",
        ),
        Document::new(
            "d2",
            "Statin treats the heart; quinine causes a chill and nausea.",
        ),
    ]
}

/// Apply `adds` as one seed delta, one subject row per addition, and
/// replay it on `mirror`.
fn multi_concept_delta(adds: &[(usize, usize)], mirror: &mut Table) -> EngineDelta {
    const SUBJECTS: [&str; 4] = ["Tuberculosis", "Acne", "Stroke", "Asthma"];
    const COLUMNS: [&str; 3] = ["Organ", "Drug", "Sign"];
    let mut rows = Table::new(Schema::new(["Disease", "Organ", "Drug", "Sign"], "Disease"));
    for (i, &(column, word)) in adds.iter().enumerate() {
        let value = [&ORGANS[..], &DRUGS[..], &SIGNS[..]][column][word];
        let subject = SUBJECTS[i % SUBJECTS.len()];
        rows.fill_slot(subject, COLUMNS[column], value);
        mirror.row_for_subject(subject);
        mirror.fill_slot(subject, COLUMNS[column], value);
    }
    EngineDelta::Seeds(SeedDelta::new(rows))
}

/// Evolve through `deltas` and require the bytes a fresh build of the
/// final table saves, the fresh build's enrichment on the evolved
/// engine and on its owned and mapped reloads, and the brute-force
/// reference from every one of their matchers.
fn assert_chain_equals_fresh(seed: u64, deltas: &[Vec<(usize, usize)>]) {
    let thor = Thor::new(ragged_store(seed), ThorConfig::with_tau(0.5));
    let mut engine = thor.prepare(&ragged_table());
    let mut mirror = ragged_table();
    for adds in deltas {
        let delta = multi_concept_delta(adds, &mut mirror);
        engine = engine.apply_delta(&delta).unwrap();
    }
    let fresh = thor.prepare(&mirror);
    let dir = scratch_dir();
    let case = case_id();
    let (pa, pb) = (
        dir.join(format!("ragged-evolved-{case}.eng")),
        dir.join(format!("ragged-fresh-{case}.eng")),
    );
    engine.save(&pa).unwrap();
    fresh.save(&pb).unwrap();
    assert_eq!(
        std::fs::read(&pa).unwrap(),
        std::fs::read(&pb).unwrap(),
        "seed {seed}: evolved bytes differ from a fresh build after {deltas:?}"
    );
    let docs = ragged_docs();
    let want = fresh.enrich(&docs);
    assert_matches_reference(&engine, &docs, &format!("seed {seed}: evolved"));
    for mode in [MapMode::Owned, MapMode::Mapped] {
        let loaded = PreparedEngine::load_with(&pa, mode).unwrap();
        assert_matches_reference(&loaded, &docs, &format!("seed {seed}: {mode:?} reload"));
        for got in [engine.enrich(&docs), loaded.enrich(&docs)] {
            assert_eq!(got.entities, want.entities);
            assert_eq!(
                thor_repro::data::csv::to_csv(&got.table),
                thor_repro::data::csv::to_csv(&want.table)
            );
        }
    }
    std::fs::remove_file(&pa).ok();
    std::fs::remove_file(&pb).ok();
}

/// Deltas that add 1 + 2, 3 + 2 and 1 + 1 + 1 seeds across concepts:
/// the challenger pass scores each word against the delta's new seed
/// rows four to a block, so these blocks hold rows of two or three
/// concepts, which must still fold per concept in row order.
#[test]
fn challenger_blocks_straddling_concepts_evolve_to_fresh_bytes() {
    let chain = [
        vec![(0, 1), (1, 1), (1, 2)],
        vec![(0, 2), (0, 3), (0, 4), (2, 1), (2, 2)],
        vec![(0, 5), (1, 3), (2, 3)],
    ];
    for seed in 0..4u64 {
        assert_chain_equals_fresh(seed, &chain);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random multi-concept delta chains (every delta adds up to seven
    /// seeds spread over the three concepts) evolve to the bytes of a
    /// fresh build, matching the brute-force reference.
    #[test]
    fn random_multi_concept_deltas_evolve_to_fresh_bytes(
        deltas in prop::collection::vec(
            prop::collection::vec((0usize..3, 0usize..8), 1..8),
            1..4,
        ),
        seed in 0u64..8,
    ) {
        assert_chain_equals_fresh(seed, &deltas);
    }
}

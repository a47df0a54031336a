//! Property tests for the incremental-engine tentpole: **a chain of
//! additive deltas is bit-identical to a fresh build of the final
//! state**. Random sequences of seed/concept additions are applied both
//! as in-memory deltas (persisted as stacked delta artifacts) and as
//! plain table edits fed to `Thor::prepare`; the two must agree on the
//! fingerprint, the saved artifact bytes, and the enrichment output —
//! across worker threads {1, 4} × phrase cache {0, 4096} × backing
//! {owned, mapped}, with the engine optionally reloaded from the chain
//! (owned or mapped) before any delta. Corrupt or truncated delta files are rejected with
//! a named error (never a panic) while the base keeps serving, and a
//! delta whose recorded parent fingerprint does not match the chain
//! below it is rejected by name.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use thor_repro::core::{
    compact_chain, ConceptDelta, Document, EngineDelta, MapMode, PreparedEngine, SeedDelta, Thor,
    ThorConfig, ENGINE_LAZY_SECTIONS,
};
use thor_repro::data::{Schema, Table};
use thor_repro::embed::{SemanticSpaceBuilder, VectorStore};
use thor_repro::fault::{
    atomic_write, DeltaMeta, ResultExt, SectionChain, SectionFile, SectionWriter, ThorResult,
    DELTA_META_SECTION, DELTA_META_VERSION,
};

const SUBJECTS: [&str; 5] = ["Tuberculosis", "Acne", "Stroke", "Neuroma", "Asthma"];
const WORDS: [&str; 8] = [
    "lungs", "brain", "skin", "nerve", "spine", "ear", "aspirin", "insulin",
];
const NEW_CONCEPTS: [&str; 3] = ["Treatment", "Complication", "Symptom"];

fn store() -> VectorStore {
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

fn docs() -> Vec<Document> {
    vec![
        Document::new("d0", "Tuberculosis damages the lungs and the brain."),
        Document::new("d1", "Acne grows on the skin and damages the ear."),
        Document::new("d2", "Aspirin treats the nerve and the spine."),
        Document::new("d3", "Stroke causes insulin problems."),
    ]
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("thor-delta-chain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn case_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The table-side replay of a delta, applied to the mirror table.
type Replay = Box<dyn Fn(&mut Table)>;

/// Interpret one raw op tuple against the currently available schema:
/// a new concept column (while any remain), a seed value into an
/// existing column, or a bare new subject row.
fn interpret_op(
    kind: usize,
    sub: usize,
    word: usize,
    added: &mut Vec<&'static str>,
) -> (EngineDelta, Replay) {
    match kind {
        0 if added.len() < NEW_CONCEPTS.len() => {
            let name = NEW_CONCEPTS[added.len()];
            added.push(name);
            (
                EngineDelta::Concept(ConceptDelta::new(name)),
                Box::new(move |t: &mut Table| *t = t.with_concept(name)),
            )
        }
        1 => {
            let subject = SUBJECTS[sub];
            let mut columns = vec!["Anatomy"];
            columns.extend(added.iter().copied());
            let column = columns[(sub + word) % columns.len()];
            let value = WORDS[word];
            let mut rows = Table::new(Schema::new(["Disease", column], "Disease"));
            rows.fill_slot(subject, column, value);
            (
                EngineDelta::Seeds(SeedDelta::new(rows)),
                Box::new(move |t: &mut Table| {
                    t.row_for_subject(subject);
                    t.fill_slot(subject, column, value);
                }),
            )
        }
        _ => {
            let subject = SUBJECTS[sub];
            let mut rows = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
            rows.row_for_subject(subject);
            (
                EngineDelta::Seeds(SeedDelta::new(rows)),
                Box::new(move |t: &mut Table| {
                    t.row_for_subject(subject);
                }),
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole invariant under random addition sequences. Each case
    /// draws its own point of the {threads} × {cache} × {mmap} matrix,
    /// so the suite as a whole sweeps every combination. Each op also
    /// draws whether the engine is first reloaded from the chain written
    /// so far (kept in memory, owned or mapped), so loaded engines
    /// evolve too.
    #[test]
    fn random_delta_chains_match_fresh_builds(
        ops in prop::collection::vec((0usize..3, 0usize..5, 0usize..8, 0usize..3), 1..5),
        threads_pick in 0usize..2,
        cache_pick in 0usize..2,
        mapped_pick in 0usize..2,
    ) {
        let threads = [1usize, 4][threads_pick];
        let cache = [0usize, 4096][cache_pick];
        let mode = [MapMode::Owned, MapMode::Mapped][mapped_pick];

        let mut config = ThorConfig::with_tau(0.6);
        config.cache_capacity = cache;
        let thor = Thor::new(store(), config);
        let mut engine = thor.prepare(&base_table());
        let mut mirror = base_table();

        let dir = scratch_dir();
        let case = case_id();
        let mut paths = vec![dir.join(format!("base-{case}.eng"))];
        engine.save(&paths[0]).unwrap();

        let mut added: Vec<&'static str> = Vec::new();
        for (i, &(kind, sub, word, reload)) in ops.iter().enumerate() {
            let (delta, replay) = interpret_op(kind, sub, word, &mut added);
            if reload > 0 {
                let mode = [MapMode::Owned, MapMode::Mapped][reload - 1];
                engine = PreparedEngine::load_with(paths.last().unwrap(), mode).unwrap();
            }
            engine = engine.apply_delta(&delta).unwrap();
            replay(&mut mirror);
            let next = dir.join(format!("d{i}-{case}.eng"));
            engine.save_delta(paths.last().unwrap(), &next, "prop case").unwrap();
            paths.push(next);
        }

        let fresh = thor.prepare(&mirror);
        prop_assert_eq!(engine.fingerprint(), fresh.fingerprint());

        // Saved-bytes identity of the evolved engine vs the fresh build.
        let (pa, pb) = (
            dir.join(format!("evolved-{case}.eng")),
            dir.join(format!("fresh-{case}.eng")),
        );
        engine.save(&pa).unwrap();
        fresh.save(&pb).unwrap();
        prop_assert_eq!(std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());

        // The persisted chain serves byte-identically to the fresh build
        // at this case's matrix point.
        let loaded = PreparedEngine::load_with(paths.last().unwrap(), mode).unwrap();
        prop_assert_eq!(loaded.chain_depth(), ops.len());
        prop_assert_eq!(loaded.fingerprint(), fresh.fingerprint());
        let docs = docs();
        let a = loaded.with_threads(threads).enrich(&docs);
        let b = fresh.with_threads(threads).enrich(&docs);
        prop_assert_eq!(&a.entities, &b.entities);
        prop_assert_eq!(
            thor_repro::data::csv::to_csv(&a.table),
            thor_repro::data::csv::to_csv(&b.table)
        );

        drop(loaded);
        for p in paths.iter().chain([&pa, &pb]) {
            std::fs::remove_file(p).ok();
        }
    }
}

/// A loaded engine, an engine derived from it with `with_tau` before
/// any delta (so the two share one preparation) and the in-memory
/// engine evolve through the same deltas to the bytes a fresh build of
/// the final table saves.
#[test]
fn loaded_derived_and_in_memory_engines_evolve_to_fresh_bytes() {
    let thor = Thor::new(store(), ThorConfig::with_tau(0.6));
    let mut start = base_table().with_concept("Treatment");
    start.fill_slot("Acne", "Treatment", "aspirin");
    let built = thor.prepare(&start);
    let dir = scratch_dir();
    let case = case_id();
    let base = dir.join(format!("evolve-base-{case}.eng"));
    built.save(&base).unwrap();
    let loaded = PreparedEngine::load(&base).unwrap();
    let derived = loaded.with_tau(0.8).with_tau(0.6);

    // First, `insulin` joins Anatomy: it challenges the Treatment seed
    // `aspirin` across concepts, which must keep its own concept. Then
    // a concept column is added and seeded, a vocabulary word becomes
    // a seed, and the Anatomy seed `lungs` is re-added to Treatment.
    let mut added = vec!["Treatment"];
    let mut mirror = start.clone();
    let mut deltas = Vec::new();
    for (kind, sub, word) in [(1, 1, 7), (0, 0, 0), (1, 2, 1), (1, 1, 0), (1, 0, 2)] {
        let (delta, replay) = interpret_op(kind, sub, word, &mut added);
        replay(&mut mirror);
        deltas.push(delta);
    }
    let fresh_path = dir.join(format!("evolve-fresh-{case}.eng"));
    thor.prepare(&mirror).save(&fresh_path).unwrap();
    let fresh = std::fs::read(&fresh_path).unwrap();

    for (how, engine) in [
        ("in-memory", built),
        ("loaded", loaded),
        ("with_tau-derived", derived),
    ] {
        let evolved = deltas.iter().fold(engine, |e, d| e.apply_delta(d).unwrap());
        let out = dir.join(format!("evolve-{how}-{case}.eng"));
        evolved.save(&out).unwrap();
        assert!(
            std::fs::read(&out).unwrap() == fresh,
            "{how} engine diverged"
        );
        std::fs::remove_file(&out).ok();
    }
    std::fs::remove_file(&base).ok();
    std::fs::remove_file(&fresh_path).ok();
}

/// Shared fixture for the corruption properties: a base artifact plus
/// one delta file, built once.
fn corruption_fixture() -> &'static (PathBuf, Vec<u8>, String) {
    static FIXTURE: std::sync::OnceLock<(PathBuf, Vec<u8>, String)> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = scratch_dir();
        let thor = Thor::new(store(), ThorConfig::with_tau(0.6));
        let engine = thor.prepare(&base_table());
        let base = dir.join("corrupt-base.eng");
        engine.save(&base).unwrap();
        let mut rows = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
        rows.fill_slot("Stroke", "Anatomy", "nerve");
        let evolved = engine
            .apply_delta(&EngineDelta::Seeds(SeedDelta::new(rows)))
            .unwrap();
        let delta = dir.join("corrupt-delta.eng");
        evolved
            .save_delta(&base, &delta, "corruption fixture")
            .unwrap();
        let bytes = std::fs::read(&delta).unwrap();
        std::fs::remove_file(&delta).ok();
        (base, bytes, engine.fingerprint().to_string())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any single-byte flip or truncation of a delta file is rejected
    /// with a named error — never a panic, never silently different
    /// output — and the base artifact keeps loading and serving.
    #[test]
    fn corrupt_or_truncated_delta_is_rejected_while_base_serves(
        pos in 0usize..100_000,
        flip in 0u8..=255,
        truncate in 0usize..2,
    ) {
        let (base, good, base_fingerprint) = corruption_fixture();
        let dir = scratch_dir();
        let path = dir.join(format!("corrupt-case-{}.eng", case_id()));
        let bad = if truncate == 1 {
            good[..pos % good.len()].to_vec()
        } else {
            let mut bytes = good.clone();
            let at = pos % bytes.len();
            bytes[at] ^= flip | 1; // guaranteed change
            bytes
        };
        atomic_write(&path, &bad).unwrap();
        // Owned load verifies every checksum up front: the damage must
        // surface as an error here, whatever byte it hit.
        let err = PreparedEngine::load_with(&path, MapMode::Owned);
        prop_assert!(err.is_err(), "corrupted delta accepted");
        // The base is untouched by the broken delta next to it.
        let served = PreparedEngine::load(base).unwrap();
        prop_assert_eq!(served.fingerprint(), base_fingerprint.as_str());
        std::fs::remove_file(&path).ok();
    }
}

/// A delta whose recorded parent *fingerprint* disagrees with the chain
/// below it — crafted via the public [`DeltaMeta`] — is rejected by
/// name, with both fingerprints in the message, even though every
/// checksum (including the directory link) is intact.
#[test]
fn stale_fingerprint_link_is_rejected_by_name() {
    let dir = scratch_dir();
    let thor = Thor::new(store(), ThorConfig::with_tau(0.6));
    let engine = thor.prepare(&base_table());
    let base = dir.join("fp-base.eng");
    engine.save(&base).unwrap();

    let parent = SectionFile::open(&base, MapMode::Owned).unwrap();
    let meta = DeltaMeta {
        parent: "fp-base.eng".into(),
        parent_dir_checksum: parent.dir_checksum(),
        parent_fingerprint: "deadbeef-not-the-real-fingerprint".into(),
        depth: 1,
        note: "crafted".into(),
    };
    drop(parent);
    let mut w = SectionWriter::new();
    w.add(DELTA_META_SECTION, DELTA_META_VERSION, &meta.encode());
    let delta = dir.join("fp-delta.eng");
    atomic_write(&delta, &w.finish()).unwrap();

    let err = PreparedEngine::load(&delta).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("delta base mismatch"), "{msg}");
    assert!(msg.contains("deadbeef-not-the-real-fingerprint"), "{msg}");
    assert!(msg.contains(engine.fingerprint()), "{msg}");
    std::fs::remove_file(&base).ok();
    std::fs::remove_file(&delta).ok();
}

/// The chain verifier as it was before checksums were pooled: file by
/// file, base first, the padding and then each section hashed on its
/// own, in directory order.
fn verify_one_at_a_time(chain: &SectionChain, lazy: &[&str]) -> ThorResult<()> {
    for (file, path) in chain.files().iter().zip(chain.paths()) {
        let verify = || -> ThorResult<()> {
            file.verify_padding()?;
            for e in file.entries() {
                if !lazy.contains(&e.name.as_str()) {
                    file.verify_section(&e.name)?;
                }
            }
            Ok(())
        };
        verify().ctx(|| format!("engine artifact {}", path.display()))?;
    }
    Ok(())
}

/// The oracle's verdict on the chain under `top`: the open (which
/// checks each `delta.meta`), then the one-at-a-time walk.
fn oracle(top: &std::path::Path, lazy: &[&str]) -> String {
    SectionChain::open(top, MapMode::Owned)
        .and_then(|chain| verify_one_at_a_time(&chain, lazy))
        .expect_err("the oracle accepted a flipped section")
        .to_string()
}

/// One byte flipped in each section of each file of a depth-3 chain —
/// sections a later delta shadows and the base's `idx.data` included —
/// fails every path that verifies it, with the message the
/// one-at-a-time verifier gives. Sections a mapped load skips
/// (`ENGINE_LAZY_SECTIONS`) still fail the owned load and compaction.
#[test]
fn a_flip_in_any_checked_section_of_a_chain_fails_every_verifying_path() {
    let thor = Thor::new(store(), ThorConfig::with_tau(0.6));
    let dir = scratch_dir();
    let case = case_id();
    let mut engine = thor.prepare(&base_table());
    let mut paths = vec![dir.join(format!("flip-base-{case}.eng"))];
    engine.save(&paths[0]).unwrap();
    let mut added = Vec::new();
    for (i, (kind, sub, word)) in [(1, 2, 3), (0, 0, 0), (1, 3, 6)].into_iter().enumerate() {
        let (delta, _) = interpret_op(kind, sub, word, &mut added);
        engine = engine.apply_delta(&delta).unwrap();
        let next = dir.join(format!("flip-d{}-{case}.eng", i + 1));
        engine
            .save_delta(paths.last().unwrap(), &next, "flip")
            .unwrap();
        paths.push(next);
    }
    let top = paths.last().unwrap().clone();
    assert_eq!(PreparedEngine::load(&top).unwrap().chain_depth(), 3);
    let out = dir.join(format!("flip-out-{case}.eng"));

    let files: Vec<Vec<u8>> = paths.iter().map(|p| std::fs::read(p).unwrap()).collect();
    let mut flipped = Vec::new();
    for (fi, good) in files.iter().enumerate() {
        let entries = SectionFile::from_bytes(good.clone())
            .unwrap()
            .entries()
            .to_vec();
        for e in entries.iter().filter(|e| e.len > 0) {
            let mut bad = good.clone();
            bad[(e.offset + e.len / 2) as usize] ^= 0x5a;
            std::fs::write(&paths[fi], &bad).unwrap();
            let what = format!("`{}` of {}", e.name, paths[fi].display());
            let lazy = ENGINE_LAZY_SECTIONS.contains(&e.name.as_str());

            let owned = oracle(&top, &[]);
            let err = PreparedEngine::load_with(&top, MapMode::Owned).unwrap_err();
            assert_eq!(err.to_string(), owned, "owned load, {what}");
            let err = compact_chain(&top, &out, None).unwrap_err();
            assert_eq!(err.to_string(), owned, "compaction, {what}");
            if !lazy {
                let mapped = oracle(&top, ENGINE_LAZY_SECTIONS);
                let err = PreparedEngine::load_with(&top, MapMode::Mapped).unwrap_err();
                assert_eq!(err.to_string(), mapped, "mapped load, {what}");
                let err = engine.save_delta(&top, &out, "flip").unwrap_err();
                assert_eq!(err.to_string(), mapped, "save_delta, {what}");
            }
            assert!(!out.exists(), "a failed path wrote {}", out.display());
            let shadowed = files[fi + 1..].iter().any(|later| {
                SectionFile::from_bytes(later.clone())
                    .unwrap()
                    .entry(&e.name)
                    .is_some()
            });
            flipped.push((fi, e.name.clone(), lazy, shadowed));
            std::fs::write(&paths[fi], good).unwrap();
        }
    }
    // The sweep reached what it is meant to: every file, the base's
    // `idx.data`, shadowed sections and lazy ones.
    for fi in 0..files.len() {
        assert!(flipped.iter().any(|f| f.0 == fi), "file {fi} never flipped");
    }
    assert!(flipped.iter().any(|f| f.0 == 0 && f.1 == "idx.data" && f.3));
    assert!(flipped.iter().any(|f| f.3 && !f.2 && f.0 > 0));
    assert!(flipped.iter().any(|f| f.2));

    // Restored, the chain verifies on every path again.
    PreparedEngine::load_with(&top, MapMode::Mapped).unwrap();
    PreparedEngine::load_with(&top, MapMode::Owned).unwrap();
    compact_chain(&top, &out, None).unwrap();
    for p in paths.iter().chain([&out]) {
        std::fs::remove_file(p).ok();
    }
}

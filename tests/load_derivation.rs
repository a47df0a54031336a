//! What a load derives, pinned against what it used to build eagerly:
//!
//! * the layout check of a persisted index compares counts, not built
//!   clusters, and still refuses a layout the derivation disagrees with,
//!   by name, under both map modes;
//! * seed syntax computed on first lookup, from several threads at
//!   once, is the syntax an eager build computes, and the instance list
//!   and the saved `syntax.seeds` bytes do not move;
//! * the context gate, which reads each concept's mean from the index,
//!   keeps the same entities on fresh, loaded, delta-evolved and
//!   compacted engines.

use std::path::PathBuf;
use std::sync::{Arc, Barrier};

use thor_repro::core::{
    compact_chain, Document, EngineDelta, ExtractedEntity, MapMode, PreparedEngine, SeedDelta,
    Thor, ThorConfig,
};
use thor_repro::data::{Schema, Table};
use thor_repro::embed::{SemanticSpaceBuilder, VectorStore};
use thor_repro::fault::{atomic_write, ByteReader, ByteWriter, SectionFile, SectionWriter};
use thor_repro::matcher::{PruneIndex, VectorIndex};
use thor_repro::text::PhraseSyntax;

fn store() -> VectorStore {
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
            ["cancer", "tumor", "unsteadiness", "deafness", "empyema"],
        )
        .generic_words(["slow-growing", "grows", "damages", "may", "cause"])
        .build()
        .into_store()
}

/// The full table; [`base_table`] lacks the values [`delta`] adds.
fn full_table() -> Table {
    let mut t = base_table();
    t.fill_slot("Tuberculosis", "Anatomy", "lungs");
    t.fill_slot("Tuberculosis", "Complication", "empyema");
    t
}

fn base_table() -> Table {
    let mut t = Table::new(Schema::new(
        ["Disease", "Anatomy", "Complication"],
        "Disease",
    ));
    t.fill_slot("Acoustic Neuroma", "Anatomy", "nervous system");
    t.fill_slot("Acne", "Anatomy", "skin");
    t.fill_slot("Acne", "Complication", "skin cancer");
    t.row_for_subject("Tuberculosis");
    t
}

fn delta() -> EngineDelta {
    let rows =
        thor_repro::data::from_csv("Disease,Anatomy,Complication\nTuberculosis,lungs,empyema\n")
            .expect("delta csv");
    EngineDelta::Seeds(SeedDelta::new(rows))
}

fn docs() -> Vec<Document> {
    vec![
        Document::new(
            "d0",
            "Acoustic Neuroma is a slow-growing brain tumor. \
             It may cause unsteadiness and deafness in the ear.",
        ),
        Document::new(
            "d1",
            "Tuberculosis generally damages the lungs and may cause empyema.",
        ),
        Document::new("d2", "Acne grows on the skin and may cause skin cancer."),
        Document::new(
            "d3",
            "Tuberculosis may damage the nerve, the brain and the ear.",
        ),
    ]
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("thor-load-derivation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(format!("{tag}.thorengine"))
}

fn le_bytes<const N: usize, T: Copy>(values: &[T], to: fn(T) -> [u8; N]) -> Vec<u8> {
    values.iter().flat_map(|&v| to(v)).collect()
}

/// `engine`'s saved sections with the index layout replaced by
/// `layout` and the six pruning sections rebuilt over the re-laid
/// index, so every checksum and every section-level check holds and
/// only the derivation can tell.
fn relaid_artifact(
    file: &SectionFile,
    engine: &PreparedEngine,
    layout: &[(String, usize, usize, usize)],
) -> Vec<u8> {
    let ix = engine.matcher().index();
    let words: Vec<String> = (0..ix.row_count())
        .map(|r| ix.row_word(r).to_string())
        .collect();
    let mut meta = ByteWriter::new();
    meta.put_u64(ix.dim() as u64);
    meta.put_u64(words.len() as u64);
    for word in &words {
        meta.put_str(word);
    }
    meta.put_u64(layout.len() as u64);
    for (name, start, rows, seed_rows) in layout {
        meta.put_str(name);
        for n in [start, rows, seed_rows] {
            meta.put_u64(*n as u64);
        }
    }
    let relaid = VectorIndex::from_parts(
        ix.dim(),
        ix.data().to_vec().into(),
        ix.norms().to_vec().into(),
        ix.rep_sums().to_vec().into(),
        words,
        layout.to_vec(),
    )
    .expect("the re-laid layout tiles the rows");
    let prune = PruneIndex::build(&relaid);
    let replaced: Vec<(&str, Vec<u8>)> = vec![
        ("idx.meta", meta.into_bytes()),
        ("prune.meta", prune.meta_bytes()),
        ("prune.members", le_bytes(prune.members(), u32::to_le_bytes)),
        (
            "prune.centroids",
            le_bytes(prune.centroids(), f32::to_le_bytes),
        ),
        ("prune.radii", le_bytes(prune.radii(), f64::to_le_bytes)),
        (
            "prune.concept_centroids",
            le_bytes(prune.concept_centroids(), f32::to_le_bytes),
        ),
        (
            "prune.concept_radii",
            le_bytes(prune.concept_radii(), f64::to_le_bytes),
        ),
    ];
    let mut w = SectionWriter::new();
    for e in file.entries() {
        let bytes = match replaced.iter().find(|(name, _)| *name == e.name) {
            Some((_, bytes)) => bytes.clone(),
            None => file.bytes(&e.name).expect("section").to_vec(),
        };
        w.add(&e.name, e.version, &bytes);
    }
    w.finish()
}

/// A persisted index whose layout is off by one row for one concept —
/// one seed row fewer, or one row moved to the next concept — with
/// every checksum valid, is refused by the load's layout check under
/// both map modes, naming the concept.
#[test]
fn an_index_layout_the_derivation_disagrees_with_is_refused_by_name() {
    let engine = Thor::new(store(), ThorConfig::with_tau(0.6)).prepare(&full_table());
    let path = scratch("layout-base");
    engine.save(&path).expect("save");
    let file = SectionFile::open(&path, MapMode::Owned).expect("open");
    let mut r = ByteReader::new(file.bytes("idx.meta").expect("idx.meta"));
    r.get_u64().expect("dim");
    let rows = r.get_u64().expect("rows");
    for _ in 0..rows {
        r.get_str().expect("row word");
    }
    let layout: Vec<(String, usize, usize, usize)> = (0..r.get_u64().expect("concepts"))
        .map(|_| {
            let name = r.get_str().expect("name");
            let mut n = || r.get_u64().expect("layout") as usize;
            (name, n(), n(), n())
        })
        .collect();
    r.finish("idx.meta").expect("whole section read");
    let victim = layout
        .iter()
        .position(|&(_, _, rows, seeds)| seeds > 0 && rows > seeds)
        .expect("a concept with seed and expansion rows");
    assert!(victim + 1 < layout.len(), "the victim has a next concept");

    let mut fewer_seeds = layout.clone();
    fewer_seeds[victim].3 -= 1;
    let mut moved_row = layout.clone();
    moved_row[victim].2 -= 1;
    moved_row[victim + 1].1 -= 1;
    moved_row[victim + 1].2 += 1;

    let tampered = scratch("layout-tampered");
    for (case, relaid, refused) in [
        ("unchanged", &layout, false),
        ("one seed row fewer", &fewer_seeds, true),
        ("one row moved", &moved_row, true),
    ] {
        atomic_write(&tampered, &relaid_artifact(&file, &engine, relaid)).expect("write");
        for mode in [MapMode::Owned, MapMode::Mapped] {
            match PreparedEngine::load_with(&tampered, mode) {
                Ok(loaded) => {
                    assert!(!refused, "{case}, {mode:?}: loaded");
                    assert_eq!(loaded.extract(&docs()).0, engine.extract(&docs()).0);
                }
                Err(err) => {
                    let msg = err.to_string();
                    assert!(refused, "{case}, {mode:?}: {msg}");
                    let name = &layout[victim].0;
                    assert!(
                        msg.contains("index sections")
                            && msg.contains("disagrees with the derived cluster")
                            && msg.contains(&format!("`{name}`")),
                        "{case}, {mode:?}: {msg}"
                    );
                }
            }
        }
    }
    drop(file);
    std::fs::remove_file(&tampered).ok();
    std::fs::remove_file(&path).ok();
}

/// Seed syntax is computed on an entry's first lookup. Lookups raced
/// from several threads over a loaded engine's table all get the one
/// shared entry, equal to an eager `PhraseSyntax::new`; the lookups
/// change neither the instance list nor the saved section bytes.
#[test]
fn seed_syntax_first_lookups_raced_from_threads_equal_the_eager_syntax() {
    const THREADS: usize = 4;
    let built = Thor::new(store(), ThorConfig::with_tau(0.6)).prepare(&full_table());
    let path = scratch("syntax");
    built.save(&path).expect("save");
    let saved_section = |path: &PathBuf| {
        let file = SectionFile::open(path, MapMode::Owned).expect("open");
        file.bytes("syntax.seeds").expect("syntax.seeds").to_vec()
    };
    let original = saved_section(&path);
    for mode in [MapMode::Owned, MapMode::Mapped] {
        let loaded = PreparedEngine::load_with(&path, mode).expect("load");
        let syntax = Arc::clone(loaded.prepared_matcher().seed_syntax());
        let instances: Vec<String> = syntax.instances().into_iter().map(String::from).collect();
        assert!(instances.len() > 3, "{instances:?}");
        let barrier = Barrier::new(THREADS);
        let seen: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (syntax, instances, barrier) = (&syntax, &instances, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        // Each thread walks the instances from its own
                        // offset, so every entry is raced for first.
                        let n = instances.len();
                        let mut at = vec![0usize; n];
                        for k in 0..n {
                            let i = (k + t * n / THREADS) % n;
                            let got = syntax.get(&instances[i]).expect("a seed");
                            at[i] = got as *const PhraseSyntax as usize;
                        }
                        at
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("lookup thread"))
                .collect()
        });
        for (i, instance) in instances.iter().enumerate() {
            assert!(
                seen.iter().all(|at| at[i] == seen[0][i]),
                "{mode:?}: `{instance}` computed twice"
            );
            assert_eq!(
                syntax.get(instance),
                Some(&PhraseSyntax::new(instance)),
                "{mode:?}: `{instance}`"
            );
        }
        assert!(syntax.get("not a seed").is_none());
        assert_eq!(syntax.instances(), instances, "{mode:?}");
        assert!(std::ptr::eq(&*syntax, loaded.matcher().seed_syntax()));
        let resaved = scratch("syntax-resaved");
        loaded.save(&resaved).expect("re-save");
        assert_eq!(saved_section(&resaved), original, "{mode:?}");
        std::fs::remove_file(&resaved).ok();
    }
    std::fs::remove_file(&path).ok();
}

/// The context gate scores a candidate's sentence against its concept's
/// mean, which every engine reads from its index. For several gates,
/// fresh, saved-and-loaded (both map modes), delta-evolved, chain-loaded
/// and compacted engines keep the same entities, and the gate is not
/// vacuous: the strictest one keeps fewer entities than no gate.
#[test]
fn context_gate_entities_agree_on_every_engine_path() {
    let store = Arc::new(store());
    let docs = docs();
    let extract = |engine: &PreparedEngine| -> Vec<ExtractedEntity> { engine.extract(&docs).0 };
    let ungated =
        extract(&Thor::new(Arc::clone(&store), ThorConfig::with_tau(0.6)).prepare(&full_table()));
    let mut kept = Vec::new();
    for gate in [-1.0, 0.0, 0.1, 0.2, 0.3] {
        let mut config = ThorConfig::with_tau(0.6);
        config.context_gate = Some(gate);
        let thor = Thor::new(Arc::clone(&store), config);
        let fresh = thor.prepare(&full_table());
        let want = extract(&fresh);
        let ctx = format!("gate {gate}");

        let saved = scratch(&format!("gate-{gate}-full"));
        fresh.save(&saved).expect("save");
        for mode in [MapMode::Owned, MapMode::Mapped] {
            let loaded = PreparedEngine::load_with(&saved, mode).expect("load");
            assert_eq!(extract(&loaded), want, "{ctx}, saved, {mode:?}");
        }

        let base = thor.prepare(&base_table());
        let evolved = base.apply_delta(&delta()).expect("additive delta");
        assert_eq!(extract(&evolved), want, "{ctx}, evolved");
        let (base_path, delta_path) = (
            scratch(&format!("gate-{gate}-base")),
            scratch(&format!("gate-{gate}-delta")),
        );
        base.save(&base_path).expect("save base");
        evolved
            .save_delta(&base_path, &delta_path, "test")
            .expect("save delta");
        let chained = PreparedEngine::load_with(&delta_path, MapMode::Mapped).expect("chain");
        assert_eq!(extract(&chained), want, "{ctx}, chain");
        let compacted_path = scratch(&format!("gate-{gate}-compact"));
        let compacted = compact_chain(&delta_path, &compacted_path, None).expect("compact");
        assert_eq!(extract(&compacted), want, "{ctx}, compacted");

        kept.push(want.len());
        for path in [saved, base_path, delta_path, compacted_path] {
            std::fs::remove_file(path).ok();
        }
    }
    assert!(kept.windows(2).all(|w| w[0] >= w[1]), "{kept:?}");
    assert!(
        kept[kept.len() - 1] < ungated.len(),
        "{kept:?} of {}",
        ungated.len()
    );
}

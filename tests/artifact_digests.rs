//! The bytes of saved artifacts are pinned across builds: a small fixed
//! engine, a 2-delta chain on it and the chain's compaction are saved,
//! and the FNV-1a digest of each file is checked against a constant.
//!
//! The other artifact tests check that a build agrees with itself (a
//! chain equals a fresh save, a reload re-saves the same bytes). This
//! one fails when a change to an encoder, to the clustering or to the
//! expansion moves any byte of the format, even consistently. A change
//! that means to move bytes must say so and update the constants.

use std::path::PathBuf;

use thor_repro::core::{compact_chain, ConceptDelta, EngineDelta, SeedDelta, Thor, ThorConfig};
use thor_repro::data::{Schema, Table};
use thor_repro::embed::{SemanticSpaceBuilder, VectorStore};
use thor_repro::fault::fnv1a;

/// The FNV-1a digests of the base artifact, the two delta files and
/// the compacted chain, in that order.
const DIGESTS: [u64; 4] = [
    0x985f_4108_507d_b389,
    0xc314_edf6_5eac_e417,
    0x82b0_b7b1_1ca0_f0b4,
    0xa896_2dcb_9842_f290,
];

fn store() -> VectorStore {
    SemanticSpaceBuilder::new(24, 17)
        .topic("anatomy")
        .words(
            "anatomy",
            [
                "lungs", "brain", "skin", "nerve", "spine", "ear", "liver", "heart", "kidney",
                "bone", "muscle", "throat",
            ],
        )
        .correlated_topic("medicine", "anatomy", 0.3)
        .words(
            "medicine",
            [
                "aspirin",
                "insulin",
                "penicillin",
                "morphine",
                "ibuprofen",
                "statin",
                "steroid",
                "vaccine",
            ],
        )
        .generic_words(["damages", "grows", "treats", "causes", "people", "green"])
        .build()
        .into_store()
}

fn base_table() -> Table {
    let mut table = Table::new(Schema::new(["Disease", "Anatomy", "Treatment"], "Disease"));
    table.fill_slot("Tuberculosis", "Anatomy", "lungs");
    table.fill_slot("Tuberculosis", "Anatomy", "throat");
    table.fill_slot("Stroke", "Anatomy", "brain");
    table.fill_slot("Acne", "Anatomy", "skin");
    table.fill_slot("Acne", "Treatment", "ibuprofen");
    table.fill_slot("Stroke", "Treatment", "aspirin");
    table
}

fn seeds(subject: &str, column: &str, value: &str) -> EngineDelta {
    let mut rows = Table::new(Schema::new(["Disease", column], "Disease"));
    rows.fill_slot(subject, column, value);
    EngineDelta::Seeds(SeedDelta::new(rows))
}

#[test]
fn saved_chain_and_compaction_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("thor-artifact-digests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<PathBuf> = ["base.eng", "d1.eng", "d2.eng", "compact.eng"]
        .iter()
        .map(|name| dir.join(name))
        .collect();

    let thor = Thor::new(store(), ThorConfig::with_tau(0.6));
    let base = thor.prepare(&base_table());
    base.save(&paths[0]).unwrap();
    // A generic vocabulary word joins Anatomy as a seed, which changes
    // both concepts' expansions but not Treatment's seed rows: that
    // group is reused, shifted. Then a concept column is added and
    // seeded.
    let first = base
        .apply_delta(&seeds("Asthma", "Anatomy", "damages"))
        .unwrap();
    first
        .save_delta(&paths[0], &paths[1], "pinned delta 1")
        .unwrap();
    let second = first
        .apply_delta(&EngineDelta::Concept(ConceptDelta::new("Complication")))
        .unwrap()
        .apply_delta(&seeds("Stroke", "Complication", "nerve"))
        .unwrap();
    second
        .save_delta(&paths[1], &paths[2], "pinned delta 2")
        .unwrap();
    compact_chain(&paths[2], &paths[3], None).unwrap();

    let digests: Vec<u64> = paths
        .iter()
        .map(|p| fnv1a(&std::fs::read(p).unwrap()))
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    let hex: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
    assert_eq!(digests, DIGESTS, "artifact digests moved: {hex:?}");
}

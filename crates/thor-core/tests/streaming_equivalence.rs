//! Property: a streaming [`thor_core::EnrichmentSession`] fed the same
//! documents as a batch [`thor_core::PreparedEngine::enrich`] — in
//! *any* order — converges to the same slot-filled table and the same
//! set of entity predictions. Slot filling is a set-semantic idempotent insert and
//! entity keys carry the document id, so stream order must be
//! unobservable in the fixed point.

use proptest::prelude::*;
use thor_core::{Document, Thor, ThorConfig};
use thor_data::{Schema, Table};
use thor_embed::SemanticSpaceBuilder;

fn thor() -> Thor {
    let store = SemanticSpaceBuilder::new(32, 55)
        .spread(0.4)
        .topic("disease")
        .topic("anatomy")
        .correlated_topic("complication", "anatomy", 0.25)
        .words(
            "disease",
            ["tuberculosis", "acne", "neuroma", "acoustic", "malaria"],
        )
        .words(
            "anatomy",
            [
                "nervous", "system", "brain", "nerve", "lungs", "skin", "ear", "liver",
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
                "fever",
            ],
        )
        .generic_words([
            "slow-growing",
            "grows",
            "damage",
            "damages",
            "severe",
            "causes",
        ])
        .build()
        .into_store();
    Thor::new(store, ThorConfig::with_tau(0.6))
}

fn table() -> Table {
    let mut table = Table::new(Schema::new(
        ["Disease", "Anatomy", "Complication"],
        "Disease",
    ));
    table.fill_slot("Acoustic Neuroma", "Anatomy", "nervous system");
    table.fill_slot("Acne", "Anatomy", "skin");
    table.fill_slot("Acne", "Complication", "skin cancer");
    table.fill_slot("Malaria", "Complication", "fever");
    table.row_for_subject("Tuberculosis");
    table
}

const SENTENCES: [&str; 7] = [
    "Acoustic Neuroma is a slow-growing non-cancerous brain tumor.",
    "It may cause unsteadiness and deafness.",
    "Tuberculosis generally damages the lungs and may cause empyema.",
    "Malaria causes severe fever and may damage the liver.",
    "Acne damages the skin.",
    "The tumor grows on the nerve near the ear.",
    "Severe tuberculosis damages the lungs.",
];

/// Build documents from sentence-template picks: each inner vec of
/// indices becomes one document (unique id, 1–4 sentences).
fn docs_from(picks: &[Vec<usize>]) -> Vec<Document> {
    picks
        .iter()
        .enumerate()
        .map(|(i, sentence_ids)| {
            let text: Vec<&str> = sentence_ids
                .iter()
                .map(|s| SENTENCES[s % SENTENCES.len()])
                .collect();
            Document::new(format!("doc{i:02}"), text.join(" "))
        })
        .collect()
}

/// Canonical view of a table's contents: sorted (subject, column,
/// sorted values) triples — equal fingerprints mean equal tables.
fn fingerprint(table: &Table) -> Vec<(String, usize, Vec<String>)> {
    let mut out = Vec::new();
    for subject in table.subjects() {
        let row = table.get_row(subject).unwrap();
        for i in 0..row.arity() {
            let mut values: Vec<String> = row.cell(i).values().map(str::to_string).collect();
            values.sort_unstable();
            out.push((subject.to_string(), i, values));
        }
    }
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn shuffled_stream_converges_to_batch_table(
        picks in prop::collection::vec(prop::collection::vec(0usize..7, 1..5), 1..8),
        rotation in 0usize..8,
        reverse in (0u8..2).prop_map(|b| b == 1),
    ) {
        let thor = thor();
        let table = table();
        let docs = docs_from(&picks);
        let batch = thor.prepare(&table).enrich(&docs);

        // Re-order the stream: rotate, optionally reverse.
        let mut stream: Vec<&Document> = docs.iter().collect();
        let n = stream.len();
        stream.rotate_left(rotation % n);
        if reverse {
            stream.reverse();
        }

        let mut session = thor.prepare(&table).session();
        for doc in stream {
            session.process(doc);
        }

        // Same predictions (order-insensitive: keys carry the doc id)...
        let mut batch_keys: Vec<_> = batch.entities.iter().map(|e| e.key()).collect();
        let mut stream_keys: Vec<_> = session.entities().iter().map(|e| e.key()).collect();
        batch_keys.sort();
        stream_keys.sort();
        prop_assert_eq!(batch_keys, stream_keys);

        // ...and the identical slot-filled table.
        let streamed = session.finish();
        prop_assert_eq!(fingerprint(&batch.table), fingerprint(&streamed));
    }

    #[test]
    fn processing_twice_is_idempotent(
        picks in prop::collection::vec(prop::collection::vec(0usize..7, 1..4), 1..4),
    ) {
        let thor = thor();
        let table = table();
        let docs = docs_from(&picks);
        let mut session = thor.prepare(&table).session();
        for doc in &docs {
            session.process(doc);
        }
        let once = fingerprint(session.table());
        for doc in &docs {
            let inserted = session.process(doc);
            prop_assert_eq!(inserted, 0, "re-processing must not insert");
        }
        prop_assert_eq!(once, fingerprint(session.table()));
    }
}

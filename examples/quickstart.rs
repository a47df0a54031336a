//! Quickstart — the paper's Fig. 1 scenario end to end.
//!
//! Two health-data sources are integrated with an outer join, producing
//! labeled nulls (⊥); THOR then conceptualizes an external document
//! against the integrated schema and slot-fills the missing values.
//!
//! Run with: `cargo run --example quickstart`

use thor_core::{Document, Thor, ThorConfig};
use thor_data::{outer_join, sparsity, Schema, Table};
use thor_embed::SemanticSpaceBuilder;

fn main() {
    // ── Two sources that only partially overlap ─────────────────────
    let mut d1 = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
    d1.fill_slot("Acoustic Neuroma", "Anatomy", "nervous system");
    d1.fill_slot("Acne", "Anatomy", "skin");

    let mut d2 = Table::new(Schema::new(["Disease", "Complication"], "Disease"));
    d2.fill_slot("Acne", "Complication", "skin cancer");
    d2.row_for_subject("Tuberculosis");

    // ── Integration creates the sparsity problem ────────────────────
    let integrated = outer_join(&d1, &d2);
    let before = sparsity(&integrated);
    println!("integrated table ({} rows):", integrated.len());
    print!("{}", thor_data::csv::to_csv(&integrated));
    println!(
        "sparsity: {:.0}% of slots are labeled nulls (⊥)\n",
        before.ratio * 100.0
    );

    // ── Word vectors covering the domain ────────────────────────────
    // (stands in for pre-trained embeddings; see DESIGN.md §2)
    let store = SemanticSpaceBuilder::new(32, 7)
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
        .into_store();

    // ── External text — the untapped asset ──────────────────────────
    let doc = Document::new(
        "web-article",
        "Acoustic Neuroma is a slow-growing non-cancerous brain tumor. \
         It may cause unsteadiness and deafness. \
         Tuberculosis generally damages the lungs and may cause empyema.",
    );

    // ── THOR: conceptualize and slot-fill ────────────────────────────
    let thor = Thor::new(store, ThorConfig::with_tau(0.6));
    let result = thor.prepare(&integrated).enrich(&[doc]);

    println!("extracted entities:");
    for e in &result.entities {
        println!(
            "  <{:<30}> {:<14} ← \"{}\" (score {:.2}, via seed \"{}\")",
            e.subject, e.concept, e.phrase, e.score, e.matched_instance
        );
    }

    let after = sparsity(&result.table);
    println!("\nenriched table:");
    print!("{}", thor_data::csv::to_csv(&result.table));
    println!(
        "\nsparsity: {:.0}% → {:.0}%  ({} slots filled, {} duplicates skipped)",
        before.ratio * 100.0,
        after.ratio * 100.0,
        result.slot_stats.inserted,
        result.slot_stats.duplicates
    );
}

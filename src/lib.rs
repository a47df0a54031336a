//! # thor-repro
//!
//! Umbrella crate for the THOR reproduction (*Mitigating Data Sparsity
//! in Integrated Data through Text Conceptualization*, ICDE 2024).
//!
//! Re-exports the workspace crates under stable module names; see the
//! repository README for the architecture overview and DESIGN.md for
//! the per-experiment index.
//!
//! ```
//! use thor_repro::core::{Document, Thor, ThorConfig};
//! use thor_repro::data::{Schema, Table};
//! use thor_repro::embed::SemanticSpaceBuilder;
//!
//! let mut table = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
//! table.fill_slot("Tuberculosis", "Anatomy", "lung");
//! let store = SemanticSpaceBuilder::new(16, 1)
//!     .topic("anatomy")
//!     .words("anatomy", ["lung", "heart"])
//!     .build()
//!     .into_store();
//! let engine = Thor::new(store, ThorConfig::with_tau(0.8)).prepare(&table);
//! let enriched = engine.enrich(&[Document::new("d", "Tuberculosis damages the heart.")]);
//! assert!(enriched.table.get_row("Tuberculosis").is_some());
//! ```

/// The THOR pipeline (segmentation, extraction, slot filling).
pub use thor_core as core;

/// Structured data: schemas, tables, integration operators, sparsity.
pub use thor_data as data;

/// Word embeddings: vector store, synthetic space, SGNS trainer.
pub use thor_embed as embed;

/// Linguistic substrate: POS tagging, dependency parsing, NP chunking.
pub use thor_nlp as nlp;

/// Text utilities: tokenization, sentences, string similarity.
pub use thor_text as text;

/// The fine-tunable semantic similarity matcher.
pub use thor_match as matcher;

/// Comparison systems: dictionary baseline, perceptron taggers,
/// simulated LLMs.
pub use thor_baselines as baselines;

/// SemEval-2013-style evaluation metrics.
pub use thor_eval as eval;

/// Fault tolerance: error taxonomy, failpoints, atomic I/O, document
/// quarantine, checkpoint/resume.
pub use thor_fault as fault;

/// Synthetic dataset generators and the annotation-effort model.
pub use thor_datagen as datagen;

/// The HTTP/1.1 serving front end over the frozen engine.
pub use thor_serve as serve;

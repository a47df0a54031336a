#![warn(missing_docs)]
//! # thor-core
//!
//! THOR — *Text Homogenization from Oblivion to Reality* (ICDE 2024).
//!
//! THOR mitigates the data sparsity of integrated data by
//! **conceptualizing external text**: it extracts entities from documents,
//! labels them with the concepts of the integrated schema, and uses them
//! to slot-fill the integrated table. Its only supervision is the
//! structured data itself — schema concepts and their known instances —
//! so it adapts to schema evolution with a re-run instead of a
//! re-annotation campaign.
//!
//! The pipeline (Algorithm 1 of the paper) has three phases:
//!
//! 1. **Preparation** ([`segment`]) — split each document into sentences
//!    and associate each with a subject instance; fine-tune the semantic
//!    matcher from the table (`thor-match`).
//! 2. **Entity extraction** ([`extract`]) — parse sentences into noun
//!    phrases (`thor-nlp`), propose candidate entities by semantic
//!    matching, refine them with word-level Jaccard and character-level
//!    gestalt similarity, and keep the best candidate per phrase.
//! 3. **Slot filling** ([`slotfill`]) — append every extracted entity to
//!    the multi-valued cell (row = subject, column = concept).
//!
//! The API has two steps: [`Thor`] builds a [`PreparedEngine`] for a
//! table (Preparation, once), and the engine serves documents
//! (Entity Extraction and Slot Filling):
//!
//! ```
//! use thor_core::{Document, Thor, ThorConfig};
//! use thor_data::{Schema, Table};
//! use thor_embed::SemanticSpaceBuilder;
//!
//! // A tiny integrated table with known instances...
//! let mut table = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
//! table.fill_slot("Tuberculosis", "Anatomy", "lung");
//!
//! // ...word vectors covering the domain...
//! let store = SemanticSpaceBuilder::new(16, 1)
//!     .topic("anatomy")
//!     .words("anatomy", ["lung", "heart"])
//!     .build()
//!     .into_store();
//!
//! // ...and an external document.
//! let doc = Document::new("d1", "Tuberculosis damages the heart.");
//!
//! let engine = Thor::new(store, ThorConfig::with_tau(0.8)).prepare(&table);
//! let result = engine.enrich(&[doc]);
//! assert!(result.table.get_row("Tuberculosis").is_some());
//! ```
//!
//! ## Build/serve split
//!
//! Preparation depends only on the table, the vectors and the
//! configuration — so it is performed once, by [`Thor::prepare`], into
//! an immutable, `Arc`-shared [`PreparedEngine`]. Every serve call
//! ([`PreparedEngine::extract`], [`PreparedEngine::enrich`],
//! [`PreparedEngine::session`], [`PreparedEngine::enrich_resilient`])
//! reuses the engine, and [`PreparedEngine::with_metrics`] is the one
//! place an observability handle attaches; [`PreparedEngine::with_tau`]
//! derives sibling engines for a τ sweep from one Preparation pass; and
//! [`PreparedEngine::save`]/[`PreparedEngine::load`] persist the engine
//! as a versioned, checksummed binary artifact that reproduces
//! byte-identical output. Parallel serve paths share one persistent
//! [`WorkerPool`] instead of spawning threads per call.

pub mod config;
pub mod delta;
pub mod document;
pub mod engine;
pub mod entity;
pub mod extract;
pub mod pipeline;
pub mod pool;
pub mod resilient;
pub mod segment;
pub mod slot;
pub mod slotfill;

pub use config::{ScoreWeights, SegmentationMode, ThorConfig};
pub use delta::{compact_chain, ConceptDelta, EngineDelta, SeedDelta};
pub use document::Document;
pub use engine::{PreparedEngine, ENGINE_FORMAT_VERSION, ENGINE_LAZY_SECTIONS, ENGINE_MAGIC};
pub use entity::{entities_tsv, ExtractedEntity};
pub use extract::{refine_candidates, refine_candidates_reference, PhraseMemo, RefineOutcome};
pub use pipeline::{EnrichmentResult, EnrichmentSession, Thor};
pub use pool::{PoolScope, WorkerPool};
pub use resilient::{ResilientOptions, ResilientOutcome, RunMode};
pub use slot::{EngineGeneration, EngineSlot};
pub use thor_fault::{CancelToken, MapMode};
pub use thor_obs::PipelineMetrics;

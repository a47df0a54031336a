#![warn(missing_docs)]
//! # thor-index
//!
//! The shared candidate-generation engine behind THOR's Entity
//! Extraction phase. Every component that turns a phrase into candidate
//! entities — the fine-tuned semantic matcher, the dictionary baseline
//! ([`DictionaryIndex`]), the tagger baseline — drives the same three
//! pieces:
//!
//! * [`VectorIndex`] — a structure-of-arrays snapshot of every concept's
//!   representative vectors, built once at fine-tune time: contiguous
//!   `f32` rows grouped by concept with their L2 norms precomputed, so
//!   scoring a query is one dot-product pass over a flat slice
//!   instead of per-pair `Vector` traffic. The exact pruned scans
//!   ([`PruneIndex`]) and [`LaneRows`] read interleaved copies of its
//!   rows through a bit-exact four-lane dot kernel.
//! * [`PhraseCache`] — an interning, bounded-LRU cache keyed by
//!   normalized subphrase, shared across an enrichment session so
//!   repeated phrases in a document stream hit cached candidate sets.
//! * [`CandidateSource`] — the trait unifying all candidate producers
//!   behind one call surface, so the pipeline and the experiment
//!   harness are agnostic to which engine generates candidates.
//!
//! The crate is std-only and layout-focused; embedding construction and
//! linguistic normalization stay in `thor-embed` / `thor-text`.

pub mod cache;
pub mod dictionary;
pub mod entity;
pub mod index;
mod lanes;
pub mod prune;
pub mod source;

pub use cache::{CacheStats, PhraseCache};
pub use dictionary::DictionaryIndex;
pub use entity::CandidateEntity;
pub use index::{ConceptScores, VectorIndex, VectorIndexBuilder};
pub use lanes::LaneRows;
pub use prune::{PruneIndex, PruneStats, PruneSummary};
pub use source::CandidateSource;

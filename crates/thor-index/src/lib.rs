#![warn(missing_docs)]
//! # thor-index
//!
//! The candidate-generation engine behind THOR's Entity Extraction
//! phase: the data structures the fine-tuned semantic matcher
//! (`thor-match`) scans, and the [`CandidateEntity`] record every
//! candidate producer — the matcher and the comparison baselines —
//! returns. Nothing here belongs to a baseline: the dictionary
//! Baseline's Aho–Corasick automaton lives in `thor-baselines`.
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
//!
//! The crate is std-only and layout-focused; embedding construction and
//! linguistic normalization stay in `thor-embed` / `thor-text`.

pub mod cache;
pub mod entity;
pub mod index;
mod lanes;
pub mod prune;

pub use cache::{CacheStats, PhraseCache};
pub use entity::CandidateEntity;
pub use index::{ConceptScores, VectorIndex, VectorIndexBuilder};
pub use lanes::LaneRows;
pub use prune::{PruneIndex, PruneStats, PruneSummary};

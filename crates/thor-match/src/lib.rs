#![warn(missing_docs)]
//! # thor-match
//!
//! The semantic similarity matcher of THOR's Preparation and Entity
//! Extraction phases (the paper builds it on spaczz's
//! `SimilarityMatcher`; we implement the documented behaviour from
//! scratch).
//!
//! **Fine-tuning** (Phase ①, weak supervision): every schema concept `C`
//! is associated with a set of *representative vectors* — the embeddings
//! of its known table instances (*seeds*) plus every vocabulary word
//! whose similarity to a seed exceeds the user threshold τ. Together they
//! form a cluster that "semantically covers the domain of C". Raising τ
//! makes the system precision-oriented; lowering it recall-oriented.
//!
//! **Matching** (Phase ②): given a noun phrase, the matcher enumerates
//! its subphrases, embeds each as a mean-pooled query vector, assigns the
//! concept whose cluster has the highest mean pairwise similarity to the
//! query, and reports the best-matching *seed instance* `c_m` used later
//! by the syntactic refinement.
//!
//! **Preparation reuse**: [`PreparedMatcher`] freezes the fine-tuning
//! output (seed clusters + the untruncated τ-expansion candidate lists)
//! so one Preparation pass at the lowest τ can derive the matcher for
//! any τ′ ≥ τ — bit-identically to a fresh `fine_tune(τ′)`, because
//! both share the same construction path.

pub mod cluster;
pub mod matcher;
pub mod prepared;

pub use cluster::{ClusterScore, ConceptCluster};
pub use matcher::{
    CandidateEntity, FineTuneStats, MatchCounts, MatcherConfig, SimilarityMatcher, TAU_RANGE,
};
pub use prepared::PreparedMatcher;
pub use thor_index::{
    CacheStats, CandidateSource, PhraseCache, PruneIndex, PruneMode, PruneStats, VectorIndex,
};

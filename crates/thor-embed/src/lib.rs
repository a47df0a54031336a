#![warn(missing_docs)]
//! # thor-embed
//!
//! Static word-embedding substrate for the THOR reproduction.
//!
//! The paper's semantic matcher runs on pre-trained static word vectors
//! (spaCy `en_core_web_md`, trained on OntoNotes 5 and Wikipedia). Those
//! vectors are a proprietary binary asset we cannot ship, so this crate
//! provides two interchangeable sources that exercise the same code path
//! (cosine similarity between mean-pooled phrase vectors):
//!
//! * [`space`] — a **synthetic semantic space**: each schema concept owns a
//!   topic centroid in ℝ^d, words of that concept's domain are sampled
//!   around the centroid, and the builder exposes the knobs THOR's
//!   evaluation depends on (inter-concept correlation, lexical ambiguity,
//!   out-of-vocabulary rate);
//! * [`sgns`] — a from-scratch **skip-gram negative-sampling (word2vec)**
//!   trainer, demonstrating that the same cluster structure emerges from
//!   co-occurrence statistics of the generated corpus.
//!
//! Both fill a [`VectorStore`] (with text (de)serialization for
//! artifacts), the only interface the rest of the system sees.

pub mod sgns;
pub mod space;
pub mod store;
pub mod vector;

pub use sgns::{SgnsConfig, SgnsTrainer};
pub use space::{SemanticSpace, SemanticSpaceBuilder, TopicSpec};
pub use store::VectorStore;
pub use vector::{cosine, mean_of_rows, slice_cosine, slice_norm, Vector};

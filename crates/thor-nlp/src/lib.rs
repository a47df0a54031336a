#![warn(missing_docs)]
//! # thor-nlp
//!
//! The linguistic substrate THOR's entity-extraction phase runs on.
//!
//! The paper uses spaCy's statistical pipeline for part-of-speech tagging
//! and dependency parsing, then extracts *noun phrases* — subtrees rooted
//! at a NOUN/PROPN/PRON with leading/trailing modifiers — as candidate
//! entity carriers. We rebuild that stack from scratch:
//!
//! * [`pos`] — the Universal-POS-style tag set;
//! * [`lexicon`] — a closed-class English lexicon plus suffix/shape
//!   heuristics for open-class words;
//! * [`tagger`] — the deterministic [`tagger::RuleTagger`] behind the
//!   [`tagger::Tagger`] trait;
//! * [`dep`] — a rule-based dependency parser producing the head/label
//!   tree of Fig. 3 (nsubj/obj/det/amod/compound/...);
//! * [`chunker`] — noun-phrase extraction over the parse, the direct
//!   input of THOR's semantic matching.

pub mod analyze;
pub mod chunker;
pub mod dep;
pub mod lexicon;
pub mod pos;
pub mod tagger;

pub use analyze::chunk_sentence;
pub use chunker::{noun_phrases, NounPhrase};
pub use dep::{parse_dependencies, DepLabel, DepTree};
pub use lexicon::Lexicon;
pub use pos::Pos;
pub use tagger::{RuleTagger, Tagger};

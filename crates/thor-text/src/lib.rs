#![warn(missing_docs)]
//! # thor-text
//!
//! Text-processing substrate for the THOR reproduction.
//!
//! THOR (ICDE 2024) conceptualizes external documents against the concepts
//! of an integrated schema. Everything it does starts from plain text, so
//! this crate provides the low-level linguistic machinery the rest of the
//! workspace builds on:
//!
//! * [`token`] — word tokenization with byte-offset spans: one
//!   span-based core ([`token_spans`]) that borrows words from the text,
//!   and the [`WordWalk`] that reads a sentence once for its tokens,
//!   their lowercase forms and its normalized words,
//! * [`sentence`] — sentence segmentation of documents, as borrowed
//!   byte ranges ([`sentence_spans`]) or owned [`Sentence`]s,
//! * [`inflect`] — rule-based English singularization (seeds are
//!   lemma-like, mentions inflect),
//! * [`normalize`] — case folding, punctuation stripping, and the
//!   stack-buffered lowercase key of case-insensitive lookups
//!   ([`with_lowercase`]),
//! * [`stopwords`] — the stop-word list used when trimming noun phrases,
//! * [`hash`] — [`GramHasher`], the one word hasher of the lookup tables
//!   fixed at engine build (stop-words, lexicon, subject mentions),
//! * [`similarity`] — the syntactic similarity measures of Algorithm 1:
//!   word-level Jaccard and character-level gestalt (Ratcliff–Obershelp)
//!   pattern matching, plus Levenshtein and n-gram measures used by tests
//!   and ablations,
//! * [`kernels`] — allocation-free fast paths for the two refinement
//!   similarities: precomputed per-phrase syntax ([`PhraseSyntax`] /
//!   [`SeedSyntax`]) plus reusable per-worker scratch ([`ScoreScratch`]),
//!   bit-identical to the [`similarity`] reference implementations,
//! * [`shape`] — word-shape features consumed by the perceptron tagger in
//!   `thor-baselines`.
//!
//! All functions are pure and allocation-conscious; the pipeline calls
//! them once per candidate subphrase, which is the hot loop of the system.

pub mod hash;
pub mod inflect;
pub mod kernels;
pub mod normalize;
pub mod sentence;
pub mod shape;
pub mod similarity;
pub mod stopwords;
pub mod token;

pub use hash::{GramBuildHasher, GramHasher};
pub use inflect::{same_lemma, singularize, singularize_phrase};
pub use kernels::{
    gestalt_bound, gestalt_prepared, jaccard_prepared, PhraseSyntax, ScoreScratch, SeedSyntax,
};
pub use normalize::{
    fold_token, normalize_phrase, normalize_phrase_into, normalized_eq, with_lowercase,
};
pub use sentence::{sentence_spans, split_sentences, Sentence, SentenceSpans};
pub use similarity::{gestalt_similarity, jaccard_words, levenshtein, ngram_similarity};
pub use stopwords::{is_stopword, strip_stopwords, trim_stopwords, trimmed_range};
pub use token::{token_spans, tokenize, tokenize_words, Token, TokenSpans, Walked, WordWalk};

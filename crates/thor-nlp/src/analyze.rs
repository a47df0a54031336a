//! Sentence analysis: the tag → parse → chunk pipeline as one call.
//!
//! The extraction pipeline runs this per segmented sentence; thor-core's
//! execution core meters each call (`sentences` / `noun_phrases`
//! counters, `stage.chunk` span) around it.

use crate::chunker::{noun_phrases, NounPhrase};
use crate::dep::parse_dependencies;
use crate::tagger::Tagger;

/// Tag, dependency-parse, and chunk one tokenized sentence.
pub fn chunk_sentence(words: &[&str], tagger: &impl Tagger) -> Vec<NounPhrase> {
    let tags = tagger.tag(words);
    let tree = parse_dependencies(words, &tags);
    noun_phrases(words, &tags, &tree)
}

//! Sentence analysis: the tag → parse → chunk pipeline as one call.
//!
//! The extraction pipeline runs this per attributed sentence through a
//! [`ChunkScratch`] it keeps per worker, with the words and their
//! lowercase forms segmentation's `thor_text::WordWalk` already read
//! ([`ChunkScratch::chunk_lowered`]); thor-core's execution core meters
//! each call (`sentences` / `noun_phrases` counters, `stage.chunk`
//! span: tagging, parsing and phrase spans) around it. Tokenizing,
//! normalizing and lowercasing fall under `stage.segment`.

use crate::chunker::{phrase_spans_into, NounPhrase, PhraseSpan};
use crate::dep::{parse_dependencies_into, DepTree};
use crate::pos::Pos;
use crate::tagger::{RuleTagger, Tagger};

/// Tag, dependency-parse, and chunk one tokenized sentence.
pub fn chunk_sentence(words: &[&str], tagger: &impl Tagger) -> Vec<NounPhrase> {
    let mut scratch = ChunkScratch::new();
    let phrases = scratch.chunk(words, tagger);
    phrases.iter().map(|p| p.to_noun_phrase(words)).collect()
}

/// The reusable buffers of [`chunk_sentence`]: the tags, the dependency
/// tree, the NP-head list, the per-token span table and the phrases.
/// One per worker, reused for every sentence it chunks: once they have
/// grown to the longest sentence seen, chunking allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct ChunkScratch {
    tags: Vec<Pos>,
    tree: DepTree,
    np_heads: Vec<usize>,
    spans: Vec<(usize, usize)>,
    phrases: Vec<PhraseSpan>,
}

impl ChunkScratch {
    /// Empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tag, dependency-parse and chunk `words` into these buffers: the
    /// noun phrases [`chunk_sentence`] returns, in the same order, as
    /// word positions.
    pub fn chunk(&mut self, words: &[&str], tagger: &impl Tagger) -> &[PhraseSpan] {
        tagger.tag_into(words, &mut self.tags);
        self.parse_and_chunk(words)
    }

    /// [`ChunkScratch::chunk`] through [`RuleTagger::tag_lowered_into`],
    /// given `lower`, the `str::to_lowercase` of each word. The phrases
    /// are the same.
    pub fn chunk_lowered(
        &mut self,
        words: &[&str],
        lower: &[&str],
        tagger: &RuleTagger,
    ) -> &[PhraseSpan] {
        tagger.tag_lowered_into(words, lower, &mut self.tags);
        self.parse_and_chunk(words)
    }

    /// Parse and chunk `words` under the tags in `self.tags`.
    fn parse_and_chunk(&mut self, words: &[&str]) -> &[PhraseSpan] {
        parse_dependencies_into(words, &self.tags, &mut self.tree, &mut self.np_heads);
        phrase_spans_into(
            words,
            &self.tags,
            &self.tree,
            &mut self.spans,
            &mut self.phrases,
        );
        &self.phrases
    }
}
